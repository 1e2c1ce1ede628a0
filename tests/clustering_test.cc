// Unit and property tests for k-means and DBSCAN.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include "core/featurizer.h"
#include "core/template_learner.h"
#include "ml/dbscan.h"
#include "ml/kmeans.h"
#include "ml/scaler.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/random.h"
#include "workloads/dataset.h"

namespace wmp::ml {
namespace {

// Three well-separated Gaussian blobs in 2-D.
Matrix ThreeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 8.0}};
  Matrix x(per_blob * 3, 2);
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      const size_t r = b * per_blob + i;
      x.At(r, 0) = centers[b][0] + rng.Normal(0, 0.5);
      x.At(r, 1) = centers[b][1] + rng.Normal(0, 0.5);
    }
  }
  return x;
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  Matrix x = ThreeBlobs(60, 3);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 3, .seed = 1}).ok());
  auto labels = km.AssignAll(x).value();
  // All points of one blob share a label, and the three blobs get three
  // distinct labels.
  std::set<int> blob_labels;
  for (size_t b = 0; b < 3; ++b) {
    const int l0 = labels[b * 60];
    for (size_t i = 0; i < 60; ++i) EXPECT_EQ(labels[b * 60 + i], l0);
    blob_labels.insert(l0);
  }
  EXPECT_EQ(blob_labels.size(), 3u);
}

TEST(KMeansTest, AssignReturnsNearestCentroid) {
  Matrix x = ThreeBlobs(40, 5);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 3, .seed = 2}).ok());
  // A point exactly at a centroid must be assigned to it.
  for (int c = 0; c < km.num_clusters(); ++c) {
    auto centroid = km.centroids().RowVec(static_cast<size_t>(c));
    EXPECT_EQ(km.Assign(centroid).value(), c);
  }
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Matrix x = ThreeBlobs(50, 7);
  auto inertias = KMeansElbowCurve(x, {1, 2, 3, 5, 8}, {.seed = 3}).value();
  for (size_t i = 1; i < inertias.size(); ++i) {
    EXPECT_LE(inertias[i], inertias[i - 1] + 1e-9);
  }
}

TEST(KMeansTest, ElbowFindsTrueClusterCount) {
  Matrix x = ThreeBlobs(50, 9);
  std::vector<int> ks{1, 2, 3, 4, 5, 6, 7, 8};
  auto inertias = KMeansElbowCurve(x, ks, {.seed = 4}).value();
  // The max-distance-to-chord elbow should land at or next to k=3.
  size_t elbow = PickElbow(inertias);
  EXPECT_GE(ks[elbow], 2);
  EXPECT_LE(ks[elbow], 4);
}

TEST(KMeansTest, MoreClustersThanRowsCollapses) {
  auto x = Matrix::FromRows({{0, 0}, {1, 1}}).value();
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 10, .seed = 5}).ok());
  EXPECT_LE(km.num_clusters(), 2);
}

TEST(KMeansTest, ErrorsOnBadInput) {
  KMeans km;
  Matrix empty;
  EXPECT_TRUE(km.Fit(empty, {}).IsInvalidArgument());
  Matrix x = ThreeBlobs(5, 1);
  EXPECT_TRUE(km.Fit(x, {.num_clusters = 0}).IsInvalidArgument());
  EXPECT_TRUE(km.Assign({1.0, 2.0}).status().IsFailedPrecondition());
}

// The sweep fits its candidates concurrently, largest k first, yet reports
// the error a serial sweep would: the first bad k in `ks` order, not the
// first fit to finish or to be claimed.
TEST(KMeansTest, ElbowCurveReportsFirstBadKInKsOrder) {
  Matrix x = ThreeBlobs(20, 15);
  for (int threads : {1, 4}) {
    util::ScopedParallelism scope(threads);
    auto curve = KMeansElbowCurve(x, {10, 0, 20, -1}, {.seed = 1});
    ASSERT_TRUE(curve.status().IsInvalidArgument()) << threads;
    EXPECT_EQ(curve.status().message(), "num_clusters must be >= 1, got 0");
    // Largest k first claims 0 before -2; the error is still -2's.
    curve = KMeansElbowCurve(x, {-2, 0, 10}, {.seed = 1});
    ASSERT_TRUE(curve.status().IsInvalidArgument()) << threads;
    EXPECT_EQ(curve.status().message(), "num_clusters must be >= 1, got -2");
    // A k above the row count (60) still clamps instead of failing.
    curve = KMeansElbowCurve(x, {3, 500}, {.seed = 1});
    ASSERT_TRUE(curve.ok()) << curve.status().ToString();
    ASSERT_EQ(curve->size(), 2u);
    EXPECT_LE((*curve)[1], (*curve)[0]);
  }
}

TEST(KMeansTest, DeterministicForSameSeed) {
  Matrix x = ThreeBlobs(30, 11);
  KMeans a, b;
  ASSERT_TRUE(a.Fit(x, {.num_clusters = 3, .seed = 42}).ok());
  ASSERT_TRUE(b.Fit(x, {.num_clusters = 3, .seed = 42}).ok());
  EXPECT_EQ(a.centroids().data(), b.centroids().data());
}

TEST(KMeansTest, SerializationRoundTrip) {
  Matrix x = ThreeBlobs(30, 13);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 3, .seed = 6}).ok());
  BinaryWriter w;
  km.Serialize(&w);
  BinaryReader r(w.buffer());
  auto restored = KMeans::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->centroids().data(), km.centroids().data());
  EXPECT_DOUBLE_EQ(restored->inertia(), km.inertia());
  // Restored model assigns identically.
  for (size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(restored->Assign(x.RowVec(i)).value(),
              km.Assign(x.RowVec(i)).value());
  }
}

// The register-blocked SquaredDistance kernel (4-wide accumulators) and the
// 4-row-blocked AssignAll path must produce assignments identical to the
// scalar per-row Assign, across dimensions that exercise every unroll
// remainder (d % 4 in {0,1,2,3}) and row-block remainder (n % 4 != 0).
TEST(KMeansTest, AssignAllMatchesAssignIdentically) {
  for (size_t d : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 11u}) {
    Rng rng(1000 + d);
    const size_t n = 203;  // not a multiple of the 4-row block
    Matrix x(n, d);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) x.At(i, j) = rng.Normal(0, 2.0);
    }
    KMeans km;
    ASSERT_TRUE(km.Fit(x, {.num_clusters = 11, .seed = d}).ok());
    auto all = km.AssignAll(x);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), n);
    for (size_t i = 0; i < n; ++i) {
      auto one = km.Assign(x.RowVec(i));
      ASSERT_TRUE(one.ok());
      ASSERT_EQ((*all)[i], *one) << "d=" << d << " row " << i;
    }
  }
}

// Property: every point's assigned centroid is at least as close as any
// other centroid, across k values.
class KMeansAssignmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(KMeansAssignmentProperty, NearestCentroidInvariant) {
  const int k = GetParam();
  Matrix x = ThreeBlobs(40, static_cast<uint64_t>(k) + 100);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = k, .seed = 77}).ok());
  for (size_t i = 0; i < x.rows(); i += 7) {
    auto row = x.RowVec(i);
    const int assigned = km.Assign(row).value();
    const double d_assigned = SquaredDistance(
        row.data(), km.centroids().RowPtr(static_cast<size_t>(assigned)), 2);
    for (int c = 0; c < km.num_clusters(); ++c) {
      const double d = SquaredDistance(
          row.data(), km.centroids().RowPtr(static_cast<size_t>(c)), 2);
      EXPECT_GE(d + 1e-12, d_assigned);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansAssignmentProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 10, 20));

// ---------- results do not depend on the thread count ----------

// Bit patterns, so a comparison tells -0.0 from 0.0 and fails on NaN.
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(double));
  return bits;
}

// `n` rows of 22 columns (the plan-feature width) scattered around 60
// centers; thousands of rows split Fit's row scans over the pool.
Matrix ManyRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  const size_t d = 22, centers = 60;
  Matrix c(centers, d);
  for (double& v : c.data()) v = rng.Normal(0, 3.0);
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(centers) - 1));
    for (size_t j = 0; j < d; ++j) x.At(i, j) = c.At(b, j) + rng.Normal(0, 1.0);
  }
  return x;
}

// Runs `fn` with this thread's ParallelFor calls capped at `threads`.
template <typename Fn>
auto AtThreads(int threads, Fn fn) {
  util::ScopedParallelism scope(threads);
  return fn();
}

TEST(KMeansThreadsTest, FitIsBitwiseEqualAtOneAndFourThreads) {
  const Matrix x = ManyRows(5000, 21);
  const KMeansOptions opt{.num_clusters = 40, .n_init = 3, .seed = 9};
  KMeans one, four;
  ASSERT_TRUE(AtThreads(1, [&] { return one.Fit(x, opt); }).ok());
  ASSERT_TRUE(AtThreads(4, [&] { return four.Fit(x, opt); }).ok());
  ASSERT_EQ(four.num_clusters(), 40);
  EXPECT_EQ(Bits(one.centroids().data()), Bits(four.centroids().data()));
  EXPECT_EQ(Bits({one.inertia()}), Bits({four.inertia()}));
}

TEST(KMeansThreadsTest, ElbowCurveIsBitwiseEqualAtOneAndFourThreads) {
  const Matrix x = ManyRows(2000, 22);
  std::vector<int> ks;
  for (int k = 10; k <= 100; k += 10) ks.push_back(k);
  const KMeansOptions base{.n_init = 1, .seed = 5};
  auto one = AtThreads(1, [&] { return KMeansElbowCurve(x, ks, base); });
  auto four = AtThreads(4, [&] { return KMeansElbowCurve(x, ks, base); });
  ASSERT_TRUE(one.ok() && four.ok());
  ASSERT_EQ(four->size(), ks.size());
  EXPECT_EQ(Bits(*one), Bits(*four));
  // Each slot holds its own k's fit.
  KMeans k70;
  ASSERT_TRUE(k70.Fit(x, {.num_clusters = 70, .n_init = 1, .seed = 5}).ok());
  EXPECT_EQ(Bits({k70.inertia()}), Bits({(*four)[6]}));
}

TEST(KMeansThreadsTest, ChooseNumTemplatesIsEqualAtOneAndFourThreads) {
  workloads::DatasetOptions dopt;
  dopt.num_queries = 3000;
  dopt.seed = 23;
  auto data = workloads::BuildDataset(workloads::Benchmark::kTpcds, dopt);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const auto indices = core::AllIndices(data->records.size());
  std::vector<int> ks;
  for (int k = 10; k <= 100; k += 10) ks.push_back(k);
  std::vector<double> curve_one, curve_four;
  auto choose = [&](std::vector<double>* curve) {
    return core::ChooseNumTemplates(data->records, indices, ks, 42, curve);
  };
  auto one = AtThreads(1, [&] { return choose(&curve_one); });
  auto four = AtThreads(4, [&] { return choose(&curve_four); });
  ASSERT_TRUE(one.ok() && four.ok());
  EXPECT_EQ(*one, *four);
  ASSERT_EQ(curve_four.size(), ks.size());
  EXPECT_EQ(Bits(curve_one), Bits(curve_four));
}

// ---------- the bounded Lloyd equals a plain one, bit for bit ----------

// The reference for the bounded Lloyd: k-means++ seeding, then a full
// NearestCentroids scan of every row in every iteration, with KMeans::Fit's
// restarts, empty-cluster reseeds and stopping rule. It is the only
// unbounded Lloyd in the tree. `late_ties`, when given, counts rows whose
// nearest distance is shared by two centroids in an iteration after the
// first, where a bound could wrongly keep a label.
struct PlainFit {
  Matrix centroids;
  double inertia = 0.0;
};

PlainFit PlainRunOnce(const Matrix& x, size_t k, const KMeansOptions& opt,
                      Rng* rng, size_t* late_ties) {
  const size_t n = x.rows(), d = x.cols();
  const auto draw = [&] {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  Matrix centroids(k, d);
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  const size_t first = draw();
  std::copy(x.RowPtr(first), x.RowPtr(first) + d, centroids.RowPtr(0));
  for (size_t c = 1; c < k; ++c) {
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(
          min_dist[i], SquaredDistance(x.RowPtr(i), centroids.RowPtr(c - 1), d));
    }
    double total = 0.0;
    for (double v : min_dist) total += v;
    size_t chosen = n - 1;
    if (total <= 0.0) {
      chosen = draw();
    } else {
      const double r = rng->UniformDouble() * total;
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) {
        acc += min_dist[i];
        if (r < acc) {
          chosen = i;
          break;
        }
      }
    }
    std::copy(x.RowPtr(chosen), x.RowPtr(chosen) + d, centroids.RowPtr(c));
  }
  std::vector<int> labels(n);
  double prev_inertia = std::numeric_limits<double>::max();
  double inertia = prev_inertia;
  for (int it = 0; it < opt.max_iters; ++it) {
    NearestCentroids(x.RowPtr(0), n, centroids, labels.data());
    inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double own = SquaredDistance(
          x.RowPtr(i), centroids.RowPtr(static_cast<size_t>(labels[i])), d);
      inertia += own;
      if (late_ties != nullptr && it > 0) {
        size_t at_min = 0;
        for (size_t c = 0; c < k; ++c) {
          at_min += SquaredDistance(x.RowPtr(i), centroids.RowPtr(c), d) == own;
        }
        *late_ties += at_min > 1;
      }
    }
    Matrix sums(k, d);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(labels[i]);
      for (size_t j = 0; j < d; ++j) sums.At(c, j) += x.At(i, j);
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        const size_t p = draw();
        std::copy(x.RowPtr(p), x.RowPtr(p) + d, centroids.RowPtr(c));
        continue;
      }
      for (size_t j = 0; j < d; ++j) {
        centroids.At(c, j) = sums.At(c, j) / static_cast<double>(counts[c]);
      }
    }
    if (prev_inertia - inertia <= opt.tol * std::max(prev_inertia, 1e-12)) {
      break;
    }
    prev_inertia = inertia;
  }
  return {std::move(centroids), inertia};
}

PlainFit PlainKMeans(const Matrix& x, const KMeansOptions& opt,
                     size_t* late_ties = nullptr) {
  const size_t k = std::min<size_t>(static_cast<size_t>(opt.num_clusters),
                                    x.rows());
  Rng rng(opt.seed);
  PlainFit best{Matrix(), std::numeric_limits<double>::max()};
  for (int r = 0; r < std::max(opt.n_init, 1); ++r) {
    PlainFit fit = PlainRunOnce(x, k, opt, &rng, late_ties);
    if (fit.inertia < best.inertia) best = std::move(fit);
  }
  return best;
}

// Fit and KMeansElbowCurve, at one and four threads and with one and three
// restarts, against the oracle: centroid bytes, inertia and every point of
// the curve.
void ExpectBitwisePlain(const Matrix& x, const std::vector<int>& ks) {
  for (int n_init : {1, 3}) {
    const KMeansOptions base{.n_init = n_init, .seed = 17};
    std::vector<double> plain_curve;
    for (int k : ks) {
      KMeansOptions opt = base;
      opt.num_clusters = k;
      const PlainFit plain = PlainKMeans(x, opt);
      plain_curve.push_back(plain.inertia);
      for (int threads : {1, 4}) {
        KMeans km;
        ASSERT_TRUE(AtThreads(threads, [&] { return km.Fit(x, opt); }).ok());
        EXPECT_EQ(Bits(km.centroids().data()), Bits(plain.centroids.data()))
            << "k=" << k << " n_init=" << n_init << " threads=" << threads;
        EXPECT_EQ(Bits({km.inertia()}), Bits({plain.inertia}))
            << "k=" << k << " n_init=" << n_init << " threads=" << threads;
      }
    }
    for (int threads : {1, 4}) {
      auto curve =
          AtThreads(threads, [&] { return KMeansElbowCurve(x, ks, base); });
      ASSERT_TRUE(curve.ok()) << curve.status().ToString();
      EXPECT_EQ(Bits(*curve), Bits(plain_curve))
          << "n_init=" << n_init << " threads=" << threads;
    }
  }
}

TEST(KMeansBoundedTest, SeparatedBlobsMatchPlainLloydBitwise) {
  ExpectBitwisePlain(ManyRows(1500, 31), {1, 2, 7, 30, 60, 90});
}

// 700 rows drawn from 9 distinct points, fitted with up to 40 centroids:
// centroids coincide (half_gap is 0), exact ties between them recur every
// iteration, and clusters empty and reseed.
TEST(KMeansBoundedTest, DuplicateRowsMatchPlainLloydBitwise) {
  Rng rng(33);
  Matrix points(9, 4);
  for (double& v : points.data()) v = static_cast<double>(rng.UniformInt(-3, 3));
  Matrix x(700, 4);
  for (size_t i = 0; i < x.rows(); ++i) {
    const size_t p = static_cast<size_t>(rng.UniformInt(0, 8));
    std::copy(points.RowPtr(p), points.RowPtr(p) + 4, x.RowPtr(i));
  }
  size_t late_ties = 0;
  PlainKMeans(x, {.num_clusters = 20, .n_init = 1, .seed = 17}, &late_ties);
  EXPECT_GT(late_ties, 0u);
  ExpectBitwisePlain(x, {3, 9, 12, 20, 40});
}

// A symmetric integer grid: distances between rows and the integer or
// half-integer centroids it produces are exact, so rows sit exactly
// equidistant from two centroids and the lower index must win.
TEST(KMeansBoundedTest, SymmetricGridTiesMatchPlainLloydBitwise) {
  Matrix x(11 * 11 * 2, 2);
  size_t r = 0;
  for (int copy = 0; copy < 2; ++copy) {
    for (int i = -5; i <= 5; ++i) {
      for (int j = -5; j <= 5; ++j) {
        x.At(r, 0) = i;
        x.At(r, 1) = j;
        ++r;
      }
    }
  }
  size_t late_ties = 0;
  for (int k : {2, 4, 5, 8, 16}) {
    PlainKMeans(x, {.num_clusters = k, .n_init = 3, .seed = 17}, &late_ties);
  }
  EXPECT_GT(late_ties, 0u);
  ExpectBitwisePlain(x, {2, 4, 5, 8, 16});
}

// Values above 1e100, whose squared distances could overflow, turn every
// skip off; the fit still equals the plain Lloyd's.
TEST(KMeansBoundedTest, HugeValuesMatchPlainLloydBitwise) {
  Matrix huge = ManyRows(300, 35);
  for (double& v : huge.data()) v *= 1e120;
  ExpectBitwisePlain(huge, {1, 5, 20});
}

// A NaN anywhere, or values whose squared distances overflow, leave every
// restart's inertia non-finite: Fit fails rather than returning OK with no
// centroids, and the elbow sweep fails with it.
TEST(KMeansTest, NonFiniteInertiaFailsFitAndTheElbowCurve) {
  Matrix with_nan = ManyRows(300, 37);
  with_nan.At(123, 7) = std::numeric_limits<double>::quiet_NaN();
  Matrix overflowing = ManyRows(300, 37);
  for (double& v : overflowing.data()) v *= 1e160;
  for (const Matrix* x : {&with_nan, &overflowing}) {
    KMeans km;
    const Status fit = km.Fit(*x, {.num_clusters = 5, .seed = 3});
    EXPECT_TRUE(fit.IsInvalidArgument()) << fit.ToString();
    EXPECT_FALSE(km.fitted());
    auto curve = KMeansElbowCurve(*x, {1, 5, 20}, {.n_init = 1, .seed = 3});
    EXPECT_TRUE(curve.status().IsInvalidArgument())
        << curve.status().ToString();
  }
}

// The input the templates are learned from: the scaled plan-feature matrix
// of a generated 3,000-query TPC-DS log, over the elbow sweep's k range.
TEST(KMeansBoundedTest, PlanFeaturesMatchPlainLloydBitwise) {
  workloads::DatasetOptions dopt;
  dopt.num_queries = 3000;
  dopt.seed = 29;
  auto data = workloads::BuildDataset(workloads::Benchmark::kTpcds, dopt);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const Matrix z = core::PlanFeatureMatrix(
      data->records, core::AllIndices(data->records.size()));
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(z).ok());
  auto scaled = scaler.Transform(z);
  ASSERT_TRUE(scaled.ok());
  ExpectBitwisePlain(*scaled, {10, 40, 100});
}

// ---------- DBSCAN ----------

TEST(DbscanTest, FindsDenseBlobsAndNoise) {
  Rng rng(31);
  std::vector<std::vector<double>> rows;
  // Two dense blobs.
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.Normal(0, 0.2), rng.Normal(0, 0.2)});
    rows.push_back({rng.Normal(5, 0.2), rng.Normal(5, 0.2)});
  }
  // A single far-away outlier.
  rows.push_back({100.0, 100.0});
  Matrix x = Matrix::FromRows(rows).value();

  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 1.0, .min_points = 4}).ok());
  EXPECT_EQ(db.num_clusters(), 2);
  EXPECT_EQ(db.labels().back(), -1);  // outlier flagged as noise
}

TEST(DbscanTest, AllPointsOneClusterWhenEpsLarge) {
  Matrix x = ThreeBlobs(20, 33);
  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 100.0, .min_points = 3}).ok());
  EXPECT_EQ(db.num_clusters(), 1);
  for (int l : db.labels()) EXPECT_EQ(l, 0);
}

TEST(DbscanTest, AllNoiseWhenEpsTiny) {
  Matrix x = ThreeBlobs(20, 35);
  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 1e-6, .min_points = 3}).ok());
  EXPECT_EQ(db.num_clusters(), 0);
  for (int l : db.labels()) EXPECT_EQ(l, -1);
}

TEST(DbscanTest, CentroidsAreClusterMeans) {
  Rng rng(37);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 30; ++i) rows.push_back({rng.Normal(2, 0.1)});
  Matrix x = Matrix::FromRows(rows).value();
  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 0.5, .min_points = 3}).ok());
  ASSERT_EQ(db.num_clusters(), 1);
  EXPECT_NEAR(db.centroids().At(0, 0), 2.0, 0.1);
}

TEST(DbscanTest, ErrorsOnBadParams) {
  Matrix x = ThreeBlobs(5, 39);
  Dbscan db;
  EXPECT_TRUE(db.Fit(x, {.eps = 0.0, .min_points = 3}).IsInvalidArgument());
  EXPECT_TRUE(db.Fit(x, {.eps = 1.0, .min_points = 0}).IsInvalidArgument());
  Matrix empty;
  EXPECT_TRUE(db.Fit(empty, {}).IsInvalidArgument());
}

}  // namespace
}  // namespace wmp::ml
