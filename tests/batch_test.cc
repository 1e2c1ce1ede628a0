// Tests for the batched, parallel inference path: util/parallel.h, the
// vectorized Regressor::Predict overrides, TemplateModel::AssignBatch,
// batched histogram construction, LearnedWmpModel::PredictWorkloads, and
// the engine::BatchScorer session API. The core property throughout:
// batch and scalar paths agree to within 1e-9.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/featurizer.h"
#include "core/histogram.h"
#include "core/learned_wmp.h"
#include "core/template_learner.h"
#include "engine/batch_scorer.h"
#include "engine/histogram_cache.h"
#include "ml/regressor.h"
#include "util/parallel.h"
#include "util/random.h"
#include "workloads/dataset.h"

namespace wmp {
namespace {

// ---------- util/parallel.h ----------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  util::ParallelFor(kN, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, HandlesEmptyAndTinyRanges) {
  int calls = 0;
  util::ParallelFor(0, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n <= grain runs serially on the caller in one chunk.
  util::ParallelFor(5, 100, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedCallsSerializeWithoutDeadlock) {
  std::atomic<size_t> total{0};
  util::ParallelFor(64, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Nested: must complete inline on the current thread.
      util::ParallelFor(8, 1, [&](size_t b2, size_t e2) {
        total.fetch_add(e2 - b2, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 64u * 8u);
}

TEST(ParallelForTest, ExplicitThreadCountAndDefaults) {
  EXPECT_GE(util::HardwareThreads(), 1u);
  util::SetDefaultParallelism(2);
  EXPECT_EQ(util::DefaultParallelism(), 2u);
  util::SetDefaultParallelism(0);
  EXPECT_EQ(util::DefaultParallelism(), util::HardwareThreads());
  std::atomic<size_t> count{0};
  util::ParallelFor(
      1000, 1,
      [&](size_t begin, size_t end) {
        count.fetch_add(end - begin, std::memory_order_relaxed);
      },
      /*num_threads=*/3);
  EXPECT_EQ(count.load(), 1000u);
}

// ---------- Regressor batch-vs-scalar equivalence ----------

void MakeRegressionData(size_t n, size_t d, uint64_t seed, ml::Matrix* x,
                        std::vector<double>* y) {
  Rng rng(seed);
  *x = ml::Matrix(n, d);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t c = 0; c < d; ++c) {
      x->At(i, c) = rng.UniformDouble(-3, 3);
      acc += (c % 2 == 0 ? 1.5 : -0.7) * x->At(i, c);
    }
    (*y)[i] = acc + std::sin(x->At(i, 0)) + rng.Normal(0, 0.1);
  }
}

class BatchEquivalence : public ::testing::TestWithParam<ml::RegressorKind> {};

TEST_P(BatchEquivalence, PredictMatchesPredictOneLoop) {
  ml::Matrix x_train, x_test;
  std::vector<double> y_train, y_test;
  MakeRegressionData(300, 4, 11, &x_train, &y_train);
  MakeRegressionData(257, 4, 12, &x_test, &y_test);

  auto model = ml::CreateRegressor(GetParam(), 5);
  ASSERT_TRUE(model->Fit(x_train, y_train).ok());

  auto batch = model->Predict(x_test);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), x_test.rows());
  for (size_t i = 0; i < x_test.rows(); ++i) {
    auto one = model->PredictOne(x_test.RowVec(i));
    ASSERT_TRUE(one.ok());
    EXPECT_NEAR((*batch)[i], *one, 1e-9)
        << model->Name() << " row " << i;
  }
}

TEST_P(BatchEquivalence, PredictErrorsBeforeFit) {
  auto model = ml::CreateRegressor(GetParam());
  ml::Matrix x(3, 2);
  EXPECT_FALSE(model->Predict(x).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BatchEquivalence,
    ::testing::Values(ml::RegressorKind::kRidge,
                      ml::RegressorKind::kDecisionTree,
                      ml::RegressorKind::kRandomForest,
                      ml::RegressorKind::kGbt, ml::RegressorKind::kMlp),
    [](const ::testing::TestParamInfo<ml::RegressorKind>& info) {
      return ml::RegressorKindName(info.param);
    });

// ---------- Histogram matrix ----------

TEST(HistogramMatrixTest, MatchesPerWorkloadBuildHistogram) {
  const std::vector<int> ids = {0, 2, 1, 2, 2, 0, 3, 3, 1, 0};
  const std::vector<size_t> offsets = {0, 4, 4, 10};  // middle workload empty
  auto h = core::BuildHistogramMatrix(ids, offsets, 4);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ASSERT_EQ(h->rows(), 3u);
  ASSERT_EQ(h->cols(), 4u);
  for (size_t w = 0; w + 1 < offsets.size(); ++w) {
    std::vector<int> slice(ids.begin() + static_cast<ptrdiff_t>(offsets[w]),
                           ids.begin() + static_cast<ptrdiff_t>(offsets[w + 1]));
    auto expected = core::BuildHistogram(slice, 4);
    ASSERT_TRUE(expected.ok());
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(h->At(w, c), (*expected)[c]) << "w=" << w << " c=" << c;
    }
  }
}

TEST(HistogramMatrixTest, BuildHistogramRowsScattersAndValidates) {
  const std::vector<int> ids = {0, 2, 1, 2};
  const std::vector<size_t> offsets = {0, 2, 4};
  ml::Matrix out(4, 3);
  out.At(1, 0) = 99.0;  // must stay untouched (not a target row)
  // Scatter workload 0 -> row 3, workload 1 -> row 0.
  ASSERT_TRUE(core::BuildHistogramRows(ids, offsets, 3, {3, 0}, &out).ok());
  EXPECT_DOUBLE_EQ(out.At(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.At(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(out.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(out.At(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 99.0);
  // Target rows are filled concurrently: duplicates and out-of-range rows
  // are rejected, as are row_map/offsets size mismatches.
  EXPECT_FALSE(core::BuildHistogramRows(ids, offsets, 3, {2, 2}, &out).ok());
  EXPECT_FALSE(core::BuildHistogramRows(ids, offsets, 3, {9, 0}, &out).ok());
  EXPECT_FALSE(core::BuildHistogramRows(ids, offsets, 3, {0}, &out).ok());
  ml::Matrix narrow(4, 2);
  EXPECT_FALSE(core::BuildHistogramRows(ids, offsets, 3, {3, 0}, &narrow).ok());
}

TEST(HistogramMatrixTest, RejectsBadIdsAndOffsets) {
  EXPECT_FALSE(core::BuildHistogramMatrix({0, 7}, {0, 2}, 4).ok());
  EXPECT_FALSE(core::BuildHistogramMatrix({0, -1}, {0, 2}, 4).ok());
  EXPECT_FALSE(core::BuildHistogramMatrix({0, 1}, {0, 1}, 4).ok());   // short
  EXPECT_FALSE(core::BuildHistogramMatrix({0, 1}, {2, 0, 2}, 4).ok());
  EXPECT_FALSE(core::BuildHistogramMatrix({}, {}, 4).ok());
}

// ---------- End-to-end batch pipeline on a generated dataset ----------

class BatchPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::DatasetOptions opt;
    opt.num_queries = 400;
    opt.seed = 33;
    auto d = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    dataset_ = new workloads::Dataset(std::move(*d));
    indices_ = new std::vector<uint32_t>(
        core::AllIndices(dataset_->records.size()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete indices_;
    indices_ = nullptr;
  }

  static core::LearnedWmpModel TrainSmall(ml::RegressorKind kind,
                                          bool variable_length = false) {
    core::LearnedWmpOptions opt;
    opt.templates.num_templates = 8;
    opt.regressor = kind;
    opt.variable_length = variable_length;
    auto model = core::LearnedWmpModel::Train(dataset_->records, *indices_,
                                              *dataset_->generator, opt);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(*model);
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
};

workloads::Dataset* BatchPipelineTest::dataset_ = nullptr;
std::vector<uint32_t>* BatchPipelineTest::indices_ = nullptr;

TEST_F(BatchPipelineTest, AssignBatchMatchesAssignForEveryMethod) {
  for (core::TemplateMethod method :
       {core::TemplateMethod::kPlanKMeans, core::TemplateMethod::kPlanDbscan,
        core::TemplateMethod::kRuleBased}) {
    core::TemplateLearnerOptions opt;
    opt.method = method;
    opt.num_templates = 8;
    opt.dbscan = {.eps = 2.5, .min_points = 4};
    auto model = core::TemplateModel::Learn(dataset_->records, *indices_,
                                            *dataset_->generator, opt);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    auto batch = model->AssignBatch(dataset_->records, *indices_);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), indices_->size());
    for (size_t i = 0; i < indices_->size(); ++i) {
      auto one = model->Assign(dataset_->records[(*indices_)[i]]);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ((*batch)[i], *one)
          << core::TemplateMethodName(method) << " row " << i;
    }
  }
}

TEST_F(BatchPipelineTest, AssignBatchOnEmptyAndUntrained) {
  core::TemplateModel untrained;
  EXPECT_FALSE(untrained.AssignBatch(dataset_->records, *indices_).ok());
  auto model = TrainSmall(ml::RegressorKind::kRidge);
  auto empty = model.templates().AssignBatch(dataset_->records, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(BatchPipelineTest, PredictWorkloadsMatchesScalarLoopAllKinds) {
  core::WorkloadSetOptions wopt;
  wopt.batch_size = 10;
  wopt.seed = 9;
  const auto batches =
      core::BuildWorkloads(dataset_->records, *indices_, wopt);
  ASSERT_FALSE(batches.empty());
  for (ml::RegressorKind kind : ml::AllRegressorKinds()) {
    const core::LearnedWmpModel model = TrainSmall(kind);
    auto batch = model.PredictWorkloads(dataset_->records, batches);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), batches.size());
    for (size_t b = 0; b < batches.size(); ++b) {
      auto one =
          model.PredictWorkload(dataset_->records, batches[b].query_indices);
      ASSERT_TRUE(one.ok());
      EXPECT_NEAR((*batch)[b], *one, 1e-9)
          << ml::RegressorKindName(kind) << " workload " << b;
    }
  }
}

TEST_F(BatchPipelineTest, PredictWorkloadsVariableLengthMatchesScalar) {
  const core::LearnedWmpModel model =
      TrainSmall(ml::RegressorKind::kGbt, /*variable_length=*/true);
  // Mixed workload sizes: variable-length mode rescales by actual size.
  std::vector<core::WorkloadBatch> batches;
  size_t next = 0;
  for (int size : {3, 10, 25, 7, 1}) {
    core::WorkloadBatch b;
    for (int q = 0; q < size; ++q) {
      b.query_indices.push_back(
          static_cast<uint32_t>((next++) % dataset_->records.size()));
    }
    batches.push_back(std::move(b));
  }
  auto batch = model.PredictWorkloads(dataset_->records, batches);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t b = 0; b < batches.size(); ++b) {
    auto one =
        model.PredictWorkload(dataset_->records, batches[b].query_indices);
    ASSERT_TRUE(one.ok());
    EXPECT_NEAR((*batch)[b], *one, 1e-9) << "workload " << b;
  }
}

TEST_F(BatchPipelineTest, PredictWorkloadsOnEmptyAndUntrained) {
  const core::LearnedWmpModel model = TrainSmall(ml::RegressorKind::kRidge);
  auto empty = model.PredictWorkloads(dataset_->records, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  core::LearnedWmpModel untrained;
  EXPECT_FALSE(untrained.PredictWorkloads(dataset_->records, {}).ok());
}

// ---------- BatchScorer ----------

TEST_F(BatchPipelineTest, BatchScorerMatchesScalarLoopAndReportsStats) {
  const core::LearnedWmpModel model = TrainSmall(ml::RegressorKind::kGbt);
  engine::BatchScorer scorer(&model);
  auto scores = scorer.ScoreLog(dataset_->records, 10);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores->predictions.size(), 40u);
  // Stats arrive by value with the result.
  EXPECT_EQ(scores->stats.num_workloads, 40u);
  EXPECT_EQ(scores->stats.num_queries, 400u);
  EXPECT_GT(scores->stats.queries_per_sec, 0.0);
  EXPECT_EQ(scores->stats.cache_hits, 0u);  // no cache attached
  EXPECT_EQ(scores->stats.cache_misses, 0u);

  const auto batches = engine::MakeConsecutiveBatches(400, 10);
  for (size_t b = 0; b < batches.size(); ++b) {
    auto one =
        model.PredictWorkload(dataset_->records, batches[b].query_indices);
    ASSERT_TRUE(one.ok());
    EXPECT_NEAR(scores->predictions[b], *one, 1e-9);
  }
}

TEST_F(BatchPipelineTest, BatchScorerThreadOptionsAgree) {
  const core::LearnedWmpModel model = TrainSmall(ml::RegressorKind::kRidge);
  engine::BatchScorerOptions single;
  single.num_threads = 1;
  engine::BatchScorerOptions many;
  many.num_threads = static_cast<int>(util::HardwareThreads());
  engine::BatchScorer s1(&model, single), sn(&model, many);
  auto p1 = s1.ScoreLog(dataset_->records, 25);
  auto pn = sn.ScoreLog(dataset_->records, 25);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(pn.ok());
  ASSERT_EQ(p1->predictions.size(), pn->predictions.size());
  for (size_t i = 0; i < p1->predictions.size(); ++i) {
    EXPECT_NEAR(p1->predictions[i], pn->predictions[i], 1e-9) << i;
  }
}

// One scorer shared by concurrent threads: ScoreWorkloads is const and
// returns stats by value, so per-call numbers never interleave.
TEST_F(BatchPipelineTest, BatchScorerIsReentrant) {
  const core::LearnedWmpModel model = TrainSmall(ml::RegressorKind::kRidge);
  const engine::BatchScorer scorer(&model);
  auto baseline = scorer.ScoreLog(dataset_->records, 10);
  ASSERT_TRUE(baseline.ok());

  constexpr int kThreads = 4, kReps = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Distinct batch sizes per thread so concurrent calls produce
    // different stats — interleaving would be visible.
    const int batch_size = 10 + t * 5;
    threads.emplace_back([&, batch_size] {
      for (int r = 0; r < kReps; ++r) {
        auto res = scorer.ScoreLog(dataset_->records, batch_size);
        if (!res.ok() ||
            res->stats.num_workloads != res->predictions.size() ||
            res->stats.num_queries != 400u) {
          mismatches.fetch_add(1);
          continue;
        }
        if (batch_size == 10) {
          for (size_t i = 0; i < res->predictions.size(); ++i) {
            if (res->predictions[i] != baseline->predictions[i]) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// With a histogram cache attached, a repeated scoring pass hits for every
// workload and reproduces the cold pass bitwise.
TEST_F(BatchPipelineTest, BatchScorerCacheHitsAreBitwiseIdentical) {
  const core::LearnedWmpModel model = TrainSmall(ml::RegressorKind::kGbt);
  engine::HistogramCache cache({.capacity = 256, .num_shards = 4});
  engine::BatchScorerOptions opt;
  opt.cache = &cache;
  engine::BatchScorer scorer(&model, opt);

  auto cold = scorer.ScoreLog(dataset_->records, 10);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->stats.cache_hits, 0u);
  EXPECT_EQ(cold->stats.cache_misses, 40u);

  auto warm = scorer.ScoreLog(dataset_->records, 10);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache_hits, 40u);
  EXPECT_EQ(warm->stats.cache_misses, 0u);
  ASSERT_EQ(warm->predictions.size(), cold->predictions.size());
  for (size_t i = 0; i < warm->predictions.size(); ++i) {
    EXPECT_EQ(warm->predictions[i], cold->predictions[i]) << i;  // bitwise
  }

  // An uncached scorer over the same model agrees bitwise with the cold
  // pass too: the cache-aware front half is arithmetically the same path.
  engine::BatchScorer plain(&model);
  auto uncached = plain.ScoreLog(dataset_->records, 10);
  ASSERT_TRUE(uncached.ok());
  for (size_t i = 0; i < uncached->predictions.size(); ++i) {
    EXPECT_EQ(uncached->predictions[i], cold->predictions[i]) << i;
  }
}

TEST(MakeConsecutiveBatchesTest, ChopsWithPartialTail) {
  auto batches = engine::MakeConsecutiveBatches(25, 10);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].query_indices.size(), 10u);
  EXPECT_EQ(batches[2].query_indices.size(), 5u);
  EXPECT_EQ(batches[2].query_indices.front(), 20u);
  EXPECT_TRUE(engine::MakeConsecutiveBatches(0, 10).empty());
  EXPECT_TRUE(engine::MakeConsecutiveBatches(10, 0).empty());
}

// ---------- Persistence + batch ----------

TEST_F(BatchPipelineTest, LoadFromFilePredictsInBatch) {
  const core::LearnedWmpModel model = TrainSmall(ml::RegressorKind::kGbt);
  const std::string path = ::testing::TempDir() + "/batch_model.wmp";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  auto scorer = engine::BatchScorer::FromFile(path);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  auto restored_scores = scorer->ScoreLog(dataset_->records, 10);
  ASSERT_TRUE(restored_scores.ok()) << restored_scores.status().ToString();

  // The restored model's batch predictions match the original model's
  // scalar loop: persistence round-trip + batch path compose.
  const auto batches = engine::MakeConsecutiveBatches(400, 10);
  for (size_t b = 0; b < batches.size(); ++b) {
    auto one =
        model.PredictWorkload(dataset_->records, batches[b].query_indices);
    ASSERT_TRUE(one.ok());
    EXPECT_NEAR(restored_scores->predictions[b], *one, 1e-9)
        << "workload " << b;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wmp
