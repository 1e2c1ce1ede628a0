// Micro-benchmarks (google-benchmark) of the hot pipeline components:
// SQL parsing, planning, plan featurization (TR2), EXPLAIN round-trip,
// template assignment (IN3), histogram construction (IN4), the end-to-end
// LearnedWMP inference path (IN1-IN5), the cache-bypass cold path (parse ->
// plan -> featurize -> scale -> NearestCentroids assign), and the batched
// serving path (engine::BatchScorer) vs the scalar per-query loop.
//
// The serving benchmarks sweep batch sizes {1, 10, 100, 1000} and thread
// counts {1, hardware_concurrency}; `items_per_second` is queries/sec.
// Run with `--benchmark_format=json` (optionally
// `--benchmark_out=FILE --benchmark_out_format=json`) to emit the JSON
// trajectory.

#include <benchmark/benchmark.h>

#include "core/featurizer.h"
#include "core/histogram.h"
#include "core/learned_wmp.h"
#include "engine/batch_scorer.h"
#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "util/arena.h"
#include "util/parallel.h"
#include "workloads/dataset.h"

namespace {

using namespace wmp;

// Shared fixture state, built once.
struct PipelineState {
  workloads::Dataset dataset;
  core::LearnedWmpModel model;
  std::vector<uint32_t> batch;
  std::string sample_sql;
  std::string sample_explain;

  static PipelineState& Get() {
    static PipelineState* state = [] {
      auto* s = new PipelineState();
      workloads::DatasetOptions opt;
      opt.num_queries = 2000;
      opt.seed = 17;
      s->dataset =
          std::move(*workloads::BuildDataset(workloads::Benchmark::kTpcds, opt));
      core::LearnedWmpOptions lopt;
      lopt.templates.num_templates = 50;
      s->model = std::move(*core::LearnedWmpModel::Train(
          s->dataset.records, core::AllIndices(s->dataset.records.size()),
          *s->dataset.generator, lopt));
      for (uint32_t i = 0; i < 10; ++i) s->batch.push_back(i);
      s->sample_sql = s->dataset.records[0].sql_text;
      s->sample_explain = plan::Explain(*s->dataset.records[0].plan);
      return s;
    }();
    return *state;
  }
};

void BM_SqlParse(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parse(s.sample_sql));
  }
}
BENCHMARK(BM_SqlParse);

void BM_PlanQuery(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  plan::Planner planner(&s.dataset.generator->catalog());
  const sql::Query& q = s.dataset.records[0].query;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.CreatePlan(q));
  }
}
BENCHMARK(BM_PlanQuery);

void BM_ExtractPlanFeatures(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const plan::PlanNode& plan = *s.dataset.records[0].plan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::ExtractPlanFeatures(plan));
  }
}
BENCHMARK(BM_ExtractPlanFeatures);

void BM_ExplainRoundTrip(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::ParseExplain(s.sample_explain));
  }
}
BENCHMARK(BM_ExplainRoundTrip);

void BM_TemplateAssign(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.model.templates().Assign(s.dataset.records[0]));
  }
}
BENCHMARK(BM_TemplateAssign);

void BM_BinWorkload(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.model.BinWorkload(s.dataset.records, s.batch));
  }
}
BENCHMARK(BM_BinWorkload);

void BM_PredictWorkload(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.model.PredictWorkload(s.dataset.records, s.batch));
  }
}
BENCHMARK(BM_PredictWorkload);

// ---------------------------------------------------------------------------
// Cache-bypass cold path: what a template-cache miss (or a drift/retrain
// row) pays. Each iteration re-parses and re-plans a batch of queries from
// SQL text into one reused bump arena, then featurizes + scales + assigns
// them in a single AssignBatch pass over records whose plan_features are
// absent — the featurizer walks the freshly planned trees instead of
// gathering precomputed rows. The arg is the batch size.
// `items_per_second` is cold queries/sec end to end (parse -> assign).
// ---------------------------------------------------------------------------
void BM_ColdPathParsePlanAssign(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const size_t batch = static_cast<size_t>(state.range(0));
  plan::Planner planner(&s.dataset.generator->catalog());
  util::Arena arena(plan::kPlanArenaChunk * batch);
  std::vector<workloads::QueryRecord> cold(batch);
  std::vector<uint32_t> indices(batch);
  for (size_t i = 0; i < batch; ++i) indices[i] = static_cast<uint32_t>(i);
  for (auto _ : state) {
    // Non-owning PlanTree views into `arena` die with the rebuild below,
    // never outliving the reset.
    for (size_t i = 0; i < batch; ++i) cold[i].plan = plan::PlanTree();
    arena.Reset();
    for (size_t i = 0; i < batch; ++i) {
      auto query = sql::Parse(s.dataset.records[i].sql_text);
      if (!query.ok()) {
        state.SkipWithError("parse failed");
        return;
      }
      auto root = planner.CreatePlanInto(*query, &arena);
      if (!root.ok()) {
        state.SkipWithError("plan failed");
        return;
      }
      cold[i].plan = plan::PlanTree(nullptr, *root);
    }
    auto ids = s.model.templates().AssignBatch(cold, indices);
    if (!ids.ok()) {
      state.SkipWithError("assign failed");
      return;
    }
    benchmark::DoNotOptimize(ids);
  }
  for (size_t i = 0; i < batch; ++i) cold[i].plan = plan::PlanTree();
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_ColdPathParsePlanAssign)->Arg(10)->Arg(100);

// ---------------------------------------------------------------------------
// Batched serving throughput. Arg 0 is the workload batch size; arg 1 the
// worker-thread count. Both paths score the whole 2000-query dataset per
// iteration, so `items_per_second` reads directly as queries/sec.
// ---------------------------------------------------------------------------

// The seed's scalar loop: one PredictWorkload (featurize -> assign ->
// histogram -> regress, one query at a time) per workload.
void BM_ScoreDatasetScalarLoop(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const auto batches = engine::MakeConsecutiveBatches(
      s.dataset.records.size(), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const auto& b : batches) {
      benchmark::DoNotOptimize(
          s.model.PredictWorkload(s.dataset.records, b.query_indices));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(s.dataset.records.size()));
}

// The batched path: one BatchScorer session scoring every workload in a
// single featurize -> assign -> histogram -> regress matrix pass.
void BM_ScoreDatasetBatchScorer(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const auto batches = engine::MakeConsecutiveBatches(
      s.dataset.records.size(), static_cast<int>(state.range(0)));
  engine::BatchScorerOptions opt;
  opt.num_threads = static_cast<int>(state.range(1));
  engine::BatchScorer scorer(&s.model, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.ScoreWorkloads(s.dataset.records, batches));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(s.dataset.records.size()));
}

void ServingArgs(benchmark::internal::Benchmark* b) {
  const int hw = static_cast<int>(wmp::util::HardwareThreads());
  for (int batch_size : {1, 10, 100, 1000}) {
    b->Args({batch_size, 1});
    if (hw > 1) b->Args({batch_size, hw});
  }
}

BENCHMARK(BM_ScoreDatasetScalarLoop)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_ScoreDatasetBatchScorer)->Apply(ServingArgs);

}  // namespace

BENCHMARK_MAIN();
