// Edge-case tests for FeatureBinner and the feature-major BinnedDataset:
// constant features, duplicate-collapsing quantile edges, the
// value-equals-edge boundary against the trees' `<=` threshold semantics,
// max_bins at both ends of its domain, storage-width selection, and
// cross-run determinism of the stochastic tree ensembles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ml/binned.h"
#include "ml/dtree.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "util/random.h"

namespace wmp::ml {
namespace {

Matrix ColumnMatrix(const std::vector<double>& values) {
  Matrix x(values.size(), 1);
  for (size_t i = 0; i < values.size(); ++i) x.At(i, 0) = values[i];
  return x;
}

// ---------- FeatureBinner edges ----------

TEST(FeatureBinnerEdgeTest, BranchlessBinSearchMatchesLowerBoundExactly) {
  // BinValue's branchless halving search must compute std::lower_bound's
  // answer for every (edge count, probe position) combination — on the
  // edges themselves, just beside them, and outside the range — or models
  // silently drift from their pre-branchless bit pattern.
  Rng rng(20260726);
  for (size_t n_edges : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{16}, size_t{63}, size_t{64}, size_t{255}}) {
    // Distinct sorted edges, as FeatureBinner::Fit constructs them.
    std::vector<double> values;
    double v = -50.0;
    for (size_t i = 0; i < 4 * n_edges + 4; ++i) {
      v += rng.UniformDouble() + 1e-3;
      values.push_back(v);
    }
    Matrix x = ColumnMatrix(values);
    FeatureBinner binner;
    ASSERT_TRUE(binner.Fit(x, static_cast<int>(n_edges) + 1).ok());
    std::vector<double> edges;
    for (size_t b = 0; b + 1 < binner.NumBins(0); ++b) {
      edges.push_back(binner.UpperEdge(0, b));
    }
    std::vector<double> probes = {-1e300, 1e300, 0.0};
    for (double e : edges) {
      probes.push_back(e);
      probes.push_back(std::nextafter(e, -1e308));
      probes.push_back(std::nextafter(e, 1e308));
      probes.push_back(e - 0.5);
      probes.push_back(e + 0.5);
    }
    for (double probe : probes) {
      const auto want = static_cast<uint16_t>(
          std::lower_bound(edges.begin(), edges.end(), probe) -
          edges.begin());
      EXPECT_EQ(binner.BinValue(0, probe), want)
          << "edges=" << edges.size() << " probe=" << probe;
    }
  }
}

TEST(FeatureBinnerEdgeTest, ConstantFeatureCollapsesToOneBin) {
  Matrix x(64, 2);
  Rng rng(3);
  for (size_t r = 0; r < 64; ++r) {
    x.At(r, 0) = 7.5;  // constant
    x.At(r, 1) = rng.UniformDouble(0, 1);
  }
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x, 64).ok());
  EXPECT_EQ(binner.NumBins(0), 1u);
  EXPECT_GT(binner.NumBins(1), 1u);
  // Every value of the constant feature lands in bin 0, on and off the
  // training value.
  EXPECT_EQ(binner.BinValue(0, 7.5), 0);
  EXPECT_EQ(binner.BinValue(0, -100.0), 0);
  EXPECT_EQ(binner.BinValue(0, 100.0), 0);
}

TEST(FeatureBinnerEdgeTest, DuplicateHeavyFeatureCollapsesEdges) {
  // Three distinct values; a 64-bin request must collapse to <= 3 buckets
  // with strictly increasing edges.
  std::vector<double> v;
  for (int i = 0; i < 30; ++i) v.push_back(1.0);
  for (int i = 0; i < 30; ++i) v.push_back(2.0);
  for (int i = 0; i < 30; ++i) v.push_back(3.0);
  Matrix x = ColumnMatrix(v);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x, 64).ok());
  ASSERT_LE(binner.NumBins(0), 3u);
  ASSERT_GE(binner.NumBins(0), 2u);
  for (size_t b = 0; b + 2 < binner.NumBins(0); ++b) {
    EXPECT_LT(binner.UpperEdge(0, b), binner.UpperEdge(0, b + 1));
  }
  // The three values map to three distinct (monotone) bins when 3 buckets
  // survive the collapse.
  EXPECT_LT(binner.BinValue(0, 1.0), binner.BinValue(0, 3.0));
}

TEST(FeatureBinnerEdgeTest, ValueEqualsEdgeMatchesTreeThresholdSemantics) {
  Rng rng(17);
  std::vector<double> v(500);
  for (double& d : v) d = rng.UniformDouble(-50, 50);
  Matrix x = ColumnMatrix(v);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x, 32).ok());
  ASSERT_GE(binner.NumBins(0), 2u);
  // A tree splitting at bin b stores threshold UpperEdge(0, b) and routes
  // `value <= threshold` left. Binning must agree on both sides of every
  // edge, including exact equality: BinValue(edge) <= b and
  // BinValue(nextafter(edge)) > b.
  for (size_t b = 0; b + 1 < binner.NumBins(0); ++b) {
    const double edge = binner.UpperEdge(0, b);
    EXPECT_LE(binner.BinValue(0, edge), b) << "value == edge must go left";
    EXPECT_GT(binner.BinValue(0, std::nextafter(edge, 1e18)), b)
        << "value just above edge must go right";
  }
}

TEST(FeatureBinnerEdgeTest, MaxBinsTwoStillSplits) {
  Rng rng(5);
  std::vector<double> v(200);
  for (double& d : v) d = rng.UniformDouble(0, 10);
  Matrix x = ColumnMatrix(v);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x, 2).ok());
  EXPECT_EQ(binner.NumBins(0), 2u);
  // A tree on 2-bin features still learns a useful single split.
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) y[i] = v[i] > binner.UpperEdge(0, 0) ? 5 : 0;
  DecisionTreeOptions opt;
  opt.tree.max_bins = 2;
  DecisionTreeRegressor model(opt);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_GT(model.tree().nodes().size(), 1u);
}

TEST(FeatureBinnerEdgeTest, MaxBinsDomainBounds) {
  Matrix x(10, 1);
  for (size_t i = 0; i < 10; ++i) x.At(i, 0) = static_cast<double>(i);
  FeatureBinner binner;
  EXPECT_TRUE(binner.Fit(x, 1).IsInvalidArgument());
  EXPECT_TRUE(binner.Fit(x, 65536).IsInvalidArgument());
  EXPECT_TRUE(binner.Fit(x, 65535).ok());
  EXPECT_TRUE(binner.Fit(x, 2).ok());
}

// ---------- Multi-probe batch binning ----------

TEST(BinColumnTest, BatchBinningMatchesBinValueBitwise) {
  // BinColumn's four interleaved branchless searches must produce exactly
  // BinValue's answer for every element — including remainder tails of
  // every length (n % 4 in {0,1,2,3}) and edge-exact probes.
  Rng rng(20260808);
  for (size_t n_bins : {size_t{2}, size_t{3}, size_t{17}, size_t{64},
                        size_t{256}, size_t{700}}) {
    std::vector<double> train(4 * n_bins + 8);
    double v = -100.0;
    for (double& d : train) {
      v += rng.UniformDouble() + 1e-3;
      d = v;
    }
    Matrix x = ColumnMatrix(train);
    FeatureBinner binner;
    ASSERT_TRUE(binner.Fit(x, static_cast<int>(n_bins)).ok());
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                     size_t{5}, size_t{7}, size_t{97}}) {
      std::vector<double> probes(n);
      for (size_t i = 0; i < n; ++i) {
        // Mix random values with exact edges and just-past-edge values.
        switch (i % 3) {
          case 0:
            probes[i] = rng.UniformDouble(-150, 150);
            break;
          case 1:
            probes[i] = binner.UpperEdge(0, i % (binner.NumBins(0) - 1));
            break;
          default:
            probes[i] = std::nextafter(
                binner.UpperEdge(0, i % (binner.NumBins(0) - 1)), 1e308);
        }
      }
      std::vector<uint16_t> wide(n, 0xffff);
      binner.BinColumn(0, probes.data(), n, 1, wide.data(), 1);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(wide[i], binner.BinValue(0, probes[i]))
            << "bins=" << n_bins << " n=" << n << " i=" << i;
      }
      if (binner.NumBins(0) <= 256) {
        std::vector<uint8_t> narrow(n, 0xff);
        binner.BinColumn(0, probes.data(), n, 1, narrow.data(), 1);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(narrow[i], binner.BinValue(0, probes[i]));
        }
      }
    }
  }
}

TEST(BinColumnTest, RadixBucketedSearchMatchesBinValueBitwise) {
  // Features with >= 8 edges route BinColumn through the radix bucket
  // index; its sub-range lower bound must return the IDENTICAL index as
  // the scalar BinValue search for every probe — edges, both nextafter
  // neighbours of every edge, far outside the range, infinities, and NaN
  // (which must land in bin 0, like every all-comparisons-false search).
  Rng rng(20260808);
  for (size_t n_bins : {size_t{16}, size_t{64}, size_t{256}, size_t{1024}}) {
    std::vector<double> train(4 * n_bins + 8);
    double v = -500.0;
    for (double& d : train) {
      // Uneven gaps so bucket occupancy varies (some buckets empty, some
      // holding several edges) — the interesting radix regimes.
      v += rng.UniformDouble() * (rng.UniformDouble() < 0.1 ? 40.0 : 0.5) +
           1e-3;
      d = v;
    }
    Matrix x = ColumnMatrix(train);
    FeatureBinner binner;
    ASSERT_TRUE(binner.Fit(x, static_cast<int>(n_bins)).ok());
    ASSERT_GE(binner.NumBins(0), 9u) << "fixture must trigger the radix path";
    std::vector<double> probes = {
        -1e300, 1e300, 0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    for (size_t b = 0; b + 1 < binner.NumBins(0); ++b) {
      const double edge = binner.UpperEdge(0, b);
      probes.push_back(edge);
      probes.push_back(std::nextafter(edge, -1e308));
      probes.push_back(std::nextafter(edge, 1e308));
    }
    for (int i = 0; i < 500; ++i) probes.push_back(rng.UniformDouble(-600, 600));
    std::vector<uint16_t> got(probes.size(), 0xffff);
    binner.BinColumn(0, probes.data(), probes.size(), 1, got.data(), 1);
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(got[i], binner.BinValue(0, probes[i]))
          << "bins=" << n_bins << " probe=" << probes[i];
    }
    EXPECT_EQ(binner.BinValue(0, std::numeric_limits<double>::quiet_NaN()), 0);
  }
}

TEST(BinColumnTest, RadixIndexOnExternallySuppliedEdges) {
  // FromEdges (the compiled-tree reconstruction path) must build the same
  // radix index Fit does — including for adversarial edge layouts:
  // clustered edges (many per bucket) and a huge-span outlier edge
  // (nearly all edges in one bucket).
  std::vector<double> clustered;
  for (int i = 0; i < 40; ++i) clustered.push_back(1.0 + i * 1e-9);
  clustered.push_back(1e6);  // almost everything collapses into bucket 0
  FeatureBinner binner = FeatureBinner::FromEdges({clustered});
  Rng rng(99);
  std::vector<double> probes = {0.5, 1.0, 1.0 + 20e-9, 1e6, 2e6,
                                std::numeric_limits<double>::quiet_NaN()};
  for (const double e : clustered) {
    probes.push_back(e);
    probes.push_back(std::nextafter(e, -1e308));
    probes.push_back(std::nextafter(e, 1e308));
  }
  for (int i = 0; i < 200; ++i) probes.push_back(rng.UniformDouble(0, 2e6));
  std::vector<uint16_t> got(probes.size(), 0xffff);
  binner.BinColumn(0, probes.data(), probes.size(), 1, got.data(), 1);
  std::vector<double> edges_copy = clustered;
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(got[i], binner.BinValue(0, probes[i])) << "i=" << i;
    if (!std::isnan(probes[i])) {
      const auto want = static_cast<uint16_t>(
          std::lower_bound(edges_copy.begin(), edges_copy.end(), probes[i]) -
          edges_copy.begin());
      EXPECT_EQ(got[i], want) << "probe=" << probes[i];
    }
  }
}

TEST(BinColumnTest, DegenerateEdgeLayoutsFallBackSafely) {
  // Few edges (below the radix threshold), zero span, and non-finite
  // edges must all keep BinColumn == BinValue — whether by skipping the
  // radix index or surviving inside it.
  const std::vector<std::vector<double>> layouts = {
      {1.0},                                   // single edge
      {1.0, 2.0, 3.0},                         // below threshold
      {std::numeric_limits<double>::lowest(),  // span overflows to inf
       0.0, 1.0, 2.0, 3.0, 4.0, 5.0,
       std::numeric_limits<double>::max()},
  };
  Rng rng(101);
  for (const auto& edges : layouts) {
    FeatureBinner binner = FeatureBinner::FromEdges({edges});
    std::vector<double> probes = {-1e308, 1e308, 0.0,
                                  std::numeric_limits<double>::quiet_NaN()};
    for (const double e : edges) {
      probes.push_back(e);
      probes.push_back(std::nextafter(e, -1e308));
      probes.push_back(std::nextafter(e, 1e308));
    }
    for (int i = 0; i < 50; ++i) probes.push_back(rng.UniformDouble(-10, 10));
    std::vector<uint16_t> got(probes.size(), 0xffff);
    binner.BinColumn(0, probes.data(), probes.size(), 1, got.data(), 1);
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(got[i], binner.BinValue(0, probes[i]))
          << "edges=" << edges.size() << " probe=" << probes[i];
    }
  }
}

TEST(BinColumnTest, StridedAccessReadsAndWritesTheRightSlots) {
  // The Matrix-column use (value_stride = d) and the row-major scatter use
  // (out_stride = d) must touch exactly their own slots.
  Rng rng(77);
  Matrix x(50, 3);
  for (double& v : x.data()) v = rng.Normal(0, 10);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x, 32).ok());
  for (size_t f = 0; f < 3; ++f) {
    std::vector<uint8_t> out(50 * 3, 0xee);
    binner.BinColumn(f, x.data().data() + f, 50, 3, out.data() + f, 3);
    for (size_t r = 0; r < 50; ++r) {
      EXPECT_EQ(out[r * 3 + f], binner.BinValue(f, x.At(r, f)));
      // Neighbouring slots untouched.
      for (size_t g = 0; g < 3; ++g) {
        if (g != f) {
          EXPECT_EQ(out[r * 3 + g], 0xee);
        }
      }
    }
  }
}

TEST(BinColumnTest, BinAllMatchesPerElementBinValue) {
  Rng rng(79);
  Matrix x(113, 5);
  for (double& v : x.data()) v = rng.UniformDouble(-3, 3);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x, 24).ok());
  auto all = binner.BinAll(x);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 113u * 5u);
  for (size_t r = 0; r < 113; ++r) {
    for (size_t f = 0; f < 5; ++f) {
      EXPECT_EQ((*all)[r * 5 + f], binner.BinValue(f, x.At(r, f)));
    }
  }
}

// ---------- BinnedDataset ----------

TEST(BinnedDatasetTest, ColumnsAndRowsMirrorBinValue) {
  Rng rng(29);
  Matrix x(120, 3);
  for (double& v : x.data()) v = rng.Normal(0, 4);
  auto data = BinnedDataset::Build(x, 16);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->narrow());
  EXPECT_EQ(data->num_rows(), 120u);
  EXPECT_EQ(data->num_features(), 3u);
  uint32_t total = 0;
  for (size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(data->BinOffset(f), total);
    total += data->NumBins(f);
    for (size_t r = 0; r < 120; ++r) {
      const uint32_t want = data->binner().BinValue(f, x.At(r, f));
      EXPECT_EQ(data->Column8(f)[r], want);
      EXPECT_EQ(data->Row8(r)[f], want);
      EXPECT_EQ(data->BinAt(r, f), want);
    }
  }
  EXPECT_EQ(data->total_bins(), total);
}

TEST(BinnedDatasetTest, WideFeaturesSelectSixteenBitStorage) {
  // 1000 distinct values with 1024 requested bins -> > 256 buckets, so the
  // dataset must fall back to uint16 columns and still mirror BinValue.
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  Matrix x = ColumnMatrix(v);
  auto data = BinnedDataset::Build(x, 1024);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(data->narrow());
  EXPECT_GT(data->NumBins(0), 256u);
  for (size_t r = 0; r < v.size(); ++r) {
    const uint32_t want = data->binner().BinValue(0, v[r]);
    EXPECT_EQ(data->Column16(0)[r], want);
    EXPECT_EQ(data->Row16(r)[0], want);
  }
  // A tree trained on wide bins must still work end-to-end.
  std::vector<double> y(v.size());
  for (size_t i = 0; i < v.size(); ++i) y[i] = v[i] < 500 ? 1.0 : 9.0;
  DecisionTreeOptions opt;
  opt.tree.max_bins = 1024;
  DecisionTreeRegressor model(opt);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_NEAR(model.PredictOne({100.0}).value(), 1.0, 1e-9);
  EXPECT_NEAR(model.PredictOne({900.0}).value(), 9.0, 1e-9);
}

TEST(BinnedDatasetCacheTest, SharesOneBuildAcrossConsumers) {
  Rng rng(31);
  Matrix x(80, 4);
  for (double& v : x.data()) v = rng.UniformDouble(0, 1);
  BinnedDatasetCache cache;
  auto a = cache.Get(x, 64);
  ASSERT_TRUE(a.ok());
  auto b = cache.Get(x, 64);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // same dataset instance
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // A different bin budget is a different dataset.
  auto c = cache.Get(x, 32);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*a, *c);
  EXPECT_EQ(cache.builds(), 2u);
  // Different content of the same shape misses.
  Matrix x2 = x;
  x2.At(0, 0) += 1.0;
  auto d = cache.Get(x2, 64);
  ASSERT_TRUE(d.ok());
  EXPECT_NE(*a, *d);
  EXPECT_EQ(cache.builds(), 3u);
}

// ---------- Cross-run determinism of the stochastic ensembles ----------

TEST(TreeDeterminismTest, RandomForestIsBitwiseReproducible) {
  Rng rng(41);
  Matrix x(400, 5);
  std::vector<double> y(400);
  for (size_t i = 0; i < 400; ++i) {
    for (size_t c = 0; c < 5; ++c) x.At(i, c) = rng.UniformDouble(0, 1);
    y[i] = x.At(i, 0) * 3 + (x.At(i, 1) > 0.5 ? 2.0 : 0.0) + rng.Normal(0, 0.2);
  }
  RandomForestOptions opt;
  opt.num_trees = 12;
  opt.seed = 7;
  RandomForestRegressor a(opt), b(opt);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  auto pa = a.Predict(x).value();
  auto pb = b.Predict(x).value();
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(TreeDeterminismTest, GbtIsBitwiseReproducible) {
  Rng rng(43);
  Matrix x(300, 4);
  std::vector<double> y(300);
  for (size_t i = 0; i < 300; ++i) {
    for (size_t c = 0; c < 4; ++c) x.At(i, c) = rng.UniformDouble(-2, 2);
    y[i] = x.At(i, 0) * x.At(i, 0) + x.At(i, 1) + rng.Normal(0, 0.1);
  }
  GbtOptions opt;
  opt.num_rounds = 25;
  opt.subsample = 0.8;
  opt.colsample = 0.75;
  opt.seed = 11;
  GbtRegressor a(opt), b(opt);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  auto pa = a.Predict(x).value();
  auto pb = b.Predict(x).value();
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

}  // namespace
}  // namespace wmp::ml
