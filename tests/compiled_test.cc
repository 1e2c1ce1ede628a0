// Tests for bin-space compiled inference (ml/compiled_tree.h): every
// family's compiled ensemble must reproduce the reference raw-space walk
// bitwise (DT/RF/GBT all keep the reference accumulation order), the
// compact stream must round-trip losslessly, Decompile must restore trees
// that predict identically, and the compiled codec must beat the legacy
// pointer-tree codec on size.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/compiled_tree.h"
#include "ml/dtree.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "ml/ridge.h"
#include "util/io.h"
#include "util/random.h"

namespace wmp::ml {
namespace {

// A nonlinear regression fixture with interactions, shared across tests.
struct Fixture {
  Matrix x;
  Matrix test;
  std::vector<double> y;
};

Fixture MakeFixture(size_t n, size_t d, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  f.x = Matrix(n, d);
  f.test = Matrix(n / 2, d);
  f.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) f.x.At(i, c) = rng.UniformDouble(-5, 5);
    f.y[i] = f.x.At(i, 0) * f.x.At(i, 0) - 2.0 * f.x.At(i, 1) +
             (f.x.At(i, d > 2 ? 2 : 1) > 0 ? 3.0 : -1.0) +
             rng.Normal(0, 0.25);
  }
  // Test rows are drawn from a wider range than training, so traversal is
  // exercised outside the fitted bin edges too.
  for (size_t i = 0; i < f.test.rows(); ++i) {
    for (size_t c = 0; c < d; ++c) f.test.At(i, c) = rng.UniformDouble(-8, 8);
  }
  return f;
}

DecisionTreeRegressor TrainDt(const Fixture& f) {
  DecisionTreeOptions opt;
  opt.tree.max_depth = 9;
  opt.seed = 3;
  DecisionTreeRegressor model(opt);
  EXPECT_TRUE(model.Fit(f.x, f.y).ok());
  return model;
}

RandomForestRegressor TrainRf(const Fixture& f) {
  RandomForestOptions opt;
  opt.num_trees = 15;
  opt.tree.max_depth = 8;
  opt.seed = 5;
  RandomForestRegressor model(opt);
  EXPECT_TRUE(model.Fit(f.x, f.y).ok());
  return model;
}

GbtRegressor TrainGbt(const Fixture& f) {
  GbtOptions opt;
  opt.num_rounds = 30;
  opt.max_depth = 5;
  opt.subsample = 0.8;
  opt.colsample = 0.75;
  opt.seed = 7;
  GbtRegressor model(opt);
  EXPECT_TRUE(model.Fit(f.x, f.y).ok());
  return model;
}

// Bitwise comparison of the compiled ensemble against the reference walk,
// through all three prediction entries.
void ExpectBitwiseEqual(const CompiledEnsemble& compiled,
                        const Regressor& reference, const Matrix& x) {
  auto want = reference.Predict(x);
  ASSERT_TRUE(want.ok());
  auto got = compiled.Predict(x);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*got)[i], (*want)[i]) << "row " << i;
    // Row-at-a-time entries agree with the batch path and the reference.
    EXPECT_EQ(compiled.PredictRow(x.RowPtr(i), x.cols()), (*want)[i]);
    EXPECT_EQ(compiled.PredictOne(x.RowVec(i)).value(), (*want)[i]);
  }
}

// ---------- Compiled vs reference, per family ----------

TEST(CompiledEnsembleTest, DecisionTreeBitwise) {
  Fixture f = MakeFixture(500, 6, 101);
  DecisionTreeRegressor model = TrainDt(f);
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->combine(), CompiledEnsemble::Combine::kSingle);
  EXPECT_EQ(compiled->num_trees(), 1u);
  ExpectBitwiseEqual(*compiled, model, f.x);
  ExpectBitwiseEqual(*compiled, model, f.test);
}

TEST(CompiledEnsembleTest, RandomForestBitwise) {
  Fixture f = MakeFixture(400, 5, 103);
  RandomForestRegressor model = TrainRf(f);
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->combine(), CompiledEnsemble::Combine::kAverage);
  EXPECT_EQ(compiled->num_trees(), model.trees().size());
  ExpectBitwiseEqual(*compiled, model, f.x);
  ExpectBitwiseEqual(*compiled, model, f.test);
}

TEST(CompiledEnsembleTest, GbtBitwise) {
  // The boosted accumulation (base + lr * leaf, tree order) mirrors the
  // reference op-for-op, so even GBT is bitwise — stronger than the 1e-9
  // the bench gates require.
  Fixture f = MakeFixture(400, 5, 107);
  GbtRegressor model = TrainGbt(f);
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->combine(), CompiledEnsemble::Combine::kBoosted);
  EXPECT_EQ(compiled->base_score(), model.base_score());
  ExpectBitwiseEqual(*compiled, model, f.x);
  ExpectBitwiseEqual(*compiled, model, f.test);
}

TEST(CompiledEnsembleTest, WideBinSpaceFallsBackToU16Codes) {
  // > 255 distinct thresholds per feature forces u16 codes; equivalence
  // must hold there too.
  Fixture f = MakeFixture(3000, 2, 109);
  DecisionTreeOptions opt;
  opt.tree.max_depth = 16;
  opt.tree.max_bins = 4096;
  opt.tree.min_samples_leaf = 1;
  opt.seed = 11;
  DecisionTreeRegressor model(opt);
  ASSERT_TRUE(model.Fit(f.x, f.y).ok());
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->narrow()) {
    EXPECT_GT(compiled->num_nodes(), 511u);
  }
  ExpectBitwiseEqual(*compiled, model, f.x);
  ExpectBitwiseEqual(*compiled, model, f.test);
}

TEST(CompiledEnsembleTest, StumplessTreePredictsTheConstant) {
  // A constant target collapses the tree to a single leaf: no used
  // features, and PredictRow must still return the leaf value.
  Matrix x(32, 3);
  Rng rng(13);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<double> y(32, 4.25);
  DecisionTreeRegressor model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->num_leaves(), 1u);
  ExpectBitwiseEqual(*compiled, model, x);
}

TEST(CompiledEnsembleTest, NonTreeFamilyFailsPrecondition) {
  RidgeRegressor ridge;
  Matrix x(20, 2);
  std::vector<double> y(20);
  Rng rng(17);
  for (size_t i = 0; i < 20; ++i) {
    x.At(i, 0) = rng.Normal();
    x.At(i, 1) = rng.Normal();
    y[i] = x.At(i, 0) + 2 * x.At(i, 1);
  }
  ASSERT_TRUE(ridge.Fit(x, y).ok());
  EXPECT_TRUE(
      CompiledEnsemble::CompileRegressor(ridge).status().IsFailedPrecondition());
}

// ---------- Serialization ----------

TEST(CompiledEnsembleTest, StreamRoundTripIsBitwiseAndSizeExact) {
  Fixture f = MakeFixture(400, 5, 211);
  RandomForestRegressor model = TrainRf(f);
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok());

  BinaryWriter writer;
  compiled->Serialize(&writer);
  EXPECT_EQ(writer.size(), compiled->SerializedBytes());

  BinaryReader reader(writer.buffer());
  auto back = CompiledEnsemble::Deserialize(&reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(back->combine(), compiled->combine());
  EXPECT_EQ(back->num_trees(), compiled->num_trees());
  EXPECT_EQ(back->num_nodes(), compiled->num_nodes());
  EXPECT_EQ(back->num_leaves(), compiled->num_leaves());
  EXPECT_EQ(back->narrow(), compiled->narrow());
  ExpectBitwiseEqual(*back, model, f.test);
}

TEST(CompiledEnsembleTest, TruncatedOrCorruptStreamsFailCleanly) {
  Fixture f = MakeFixture(300, 4, 213);
  GbtRegressor model = TrainGbt(f);
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok());
  BinaryWriter writer;
  compiled->Serialize(&writer);
  const std::string& full = writer.buffer();

  // Every truncation point must produce an error, never a crash or an
  // ensemble that silently predicts garbage.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{9}, full.size() / 4,
                     full.size() / 2, full.size() - 1}) {
    BinaryReader reader(full.substr(0, cut));
    EXPECT_FALSE(CompiledEnsemble::Deserialize(&reader).ok()) << cut;
  }
  // A flipped magic tag is rejected outright.
  std::string bad = full;
  bad[0] = static_cast<char>(bad[0] ^ 0x5a);
  BinaryReader reader(bad);
  EXPECT_FALSE(CompiledEnsemble::Deserialize(&reader).ok());
}

TEST(CompiledEnsembleTest, NanEdgeIsRejected) {
  // NaN compares false both ways, so an edge table holding one passes a
  // `cur <= prev` check, and the bin-space walk then disagrees with the
  // raw-space walk. Poisoning feature 0's first edge, or a later one, must
  // fail the decode.
  Fixture f = MakeFixture(500, 6, 101);
  DecisionTreeRegressor model = TrainDt(f);
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok());
  BinaryWriter writer;
  compiled->Serialize(&writer);
  const std::string& full = writer.buffer();
  // Tag u32; version, combine and narrow u8; base and scale f64; feature
  // count u32; tree count u32; one tree's node count u32. Feature 0's edge
  // count follows, then its edges.
  constexpr size_t kEdgeCountAt = 4 + 3 + 2 * 8 + 4 + 4 + 4;
  constexpr size_t kEdgesAt = kEdgeCountAt + 4;
  uint32_t ne = 0;
  std::memcpy(&ne, full.data() + kEdgeCountAt, sizeof(ne));
  ASSERT_GE(ne, 2u);
  ASSERT_GE(full.size(), kEdgesAt + ne * sizeof(double));
  // The offsets land on a real edge table: finite and strictly increasing.
  double prev = -std::numeric_limits<double>::infinity();
  for (uint32_t e = 0; e < ne; ++e) {
    double edge = 0.0;
    std::memcpy(&edge, full.data() + kEdgesAt + e * sizeof(double),
                sizeof(edge));
    ASSERT_TRUE(std::isfinite(edge) && edge > prev) << "edge " << e;
    prev = edge;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint32_t e : {0u, ne / 2, ne - 1}) {
    std::string bad = full;
    std::memcpy(bad.data() + kEdgesAt + e * sizeof(double), &nan,
                sizeof(nan));
    BinaryReader reader(bad);
    EXPECT_TRUE(
        CompiledEnsemble::Deserialize(&reader).status().IsInvalidArgument())
        << "NaN at edge " << e << " of " << ne;
  }
}

TEST(CompiledEnsembleTest, RegressorCodecRoundTripsAndShrinks) {
  // The tree regressors now serialize through the compiled codec: the
  // stream must be substantially smaller than the legacy pointer codec and
  // deserialize to a bitwise-identical predictor.
  Fixture f = MakeFixture(400, 5, 307);
  {
    DecisionTreeRegressor model = TrainDt(f);
    BinaryWriter w;
    ASSERT_TRUE(model.Serialize(&w).ok());
    auto ptr_bytes = PointerSerializedBytes(model);
    ASSERT_TRUE(ptr_bytes.ok());
    EXPECT_LT(w.size(), *ptr_bytes);
    BinaryReader r(w.buffer());
    auto back = DecisionTreeRegressor::Deserialize(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    auto want = model.Predict(f.test);
    auto got = (*back)->Predict(f.test);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    for (size_t i = 0; i < want->size(); ++i) EXPECT_EQ((*got)[i], (*want)[i]);
  }
  {
    GbtRegressor model = TrainGbt(f);
    BinaryWriter w;
    ASSERT_TRUE(model.Serialize(&w).ok());
    auto ptr_bytes = PointerSerializedBytes(model);
    ASSERT_TRUE(ptr_bytes.ok());
    EXPECT_LT(w.size(), *ptr_bytes);
    BinaryReader r(w.buffer());
    auto back = GbtRegressor::Deserialize(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ((*back)->base_score(), model.base_score());
    auto want = model.Predict(f.test);
    auto got = (*back)->Predict(f.test);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    for (size_t i = 0; i < want->size(); ++i) EXPECT_EQ((*got)[i], (*want)[i]);
  }
}

// ---------- Decompile ----------

TEST(CompiledEnsembleTest, DecompileRestoresPredictionEquivalentTrees) {
  Fixture f = MakeFixture(400, 5, 401);
  RandomForestRegressor model = TrainRf(f);
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok());
  auto trees = compiled->Decompile();
  ASSERT_TRUE(trees.ok()) << trees.status().ToString();
  ASSERT_EQ(trees->size(), model.trees().size());
  // Tree by tree, the decompiled form predicts exactly what the original
  // fitted tree predicts (thresholds come back as the exact doubles).
  for (size_t t = 0; t < trees->size(); ++t) {
    ASSERT_EQ((*trees)[t].nodes().size(), model.trees()[t].nodes().size());
    for (size_t i = 0; i < f.test.rows(); ++i) {
      EXPECT_EQ((*trees)[t].Predict(f.test.RowPtr(i), f.test.cols()),
                model.trees()[t].Predict(f.test.RowPtr(i), f.test.cols()))
          << "tree " << t << " row " << i;
    }
  }
}

// ---------- Lockstep traversal ----------

Matrix HeadRows(const Matrix& x, size_t n) {
  Matrix m(n, x.cols());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < x.cols(); ++c) m.At(i, c) = x.At(i, c);
  }
  return m;
}

TEST(CompiledEnsembleTest, LockstepBitwiseAcrossTails) {
  // Row counts sweep every tail shape the block scheduler can see: empty,
  // shorter than a block (n < 8), exact multiples of 8, and every ragged
  // remainder after one to three full blocks.
  Fixture f = MakeFixture(500, 6, 811);
  DecisionTreeRegressor dt = TrainDt(f);
  RandomForestRegressor rf = TrainRf(f);
  GbtRegressor gbt = TrainGbt(f);
  const Regressor* models[] = {&dt, &rf, &gbt};
  for (const Regressor* model : models) {
    auto compiled = CompiledEnsemble::CompileRegressor(*model);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (size_t n = 0; n < 32; ++n) {
      SCOPED_TRACE(testing::Message() << "n=" << n);
      ExpectBitwiseEqual(*compiled, *model, HeadRows(f.test, n));
    }
  }
}

TEST(CompiledEnsembleTest, LockstepMixedLeafDepthsParkEarlyExitingLanes) {
  // A deep unpruned tree has leaves at wildly different depths, so lanes
  // of one block park at different iterations — the surviving lanes must
  // keep walking to *their* leaves while parked lanes hold position.
  Fixture f = MakeFixture(900, 4, 821);
  DecisionTreeOptions opt;
  opt.tree.max_depth = 18;
  opt.tree.min_samples_leaf = 1;
  opt.seed = 23;
  DecisionTreeRegressor model(opt);
  ASSERT_TRUE(model.Fit(f.x, f.y).ok());
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExpectBitwiseEqual(*compiled, model, f.test);
  ExpectBitwiseEqual(*compiled, model, HeadRows(f.test, 13));
}

TEST(CompiledEnsembleTest, LockstepWideBinSpaceU16) {
  // u16 codes: the lockstep lanes must compare two-byte codes.
  Fixture f = MakeFixture(3000, 2, 823);
  DecisionTreeOptions opt;
  opt.tree.max_depth = 16;
  opt.tree.max_bins = 4096;
  opt.tree.min_samples_leaf = 1;
  opt.seed = 29;
  DecisionTreeRegressor model(opt);
  ASSERT_TRUE(model.Fit(f.x, f.y).ok());
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_FALSE(compiled->narrow());
  ExpectBitwiseEqual(*compiled, model, f.test);
  ExpectBitwiseEqual(*compiled, model, HeadRows(f.test, 11));
}

TEST(CompiledEnsembleTest, LockstepStumpEnsemble) {
  // Single-leaf ensemble: d_ = 0, every lane parks before the
  // first step — the degenerate case of the early-exit machinery. Nine
  // rows are one full block plus a one-row tail.
  Matrix x(9, 3);
  Rng rng(31);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<double> y(9, -2.5);
  DecisionTreeRegressor model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  auto compiled = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->num_leaves(), 1u);
  ASSERT_EQ(compiled->num_features(), 0u);
  ExpectBitwiseEqual(*compiled, model, x);
}

}  // namespace
}  // namespace wmp::ml
