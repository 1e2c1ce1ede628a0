#include "workloads/dataset.h"

#include "plan/features.h"
#include "sql/printer.h"
#include "util/parallel.h"

namespace wmp::workloads {

const char* BenchmarkName(Benchmark b) {
  switch (b) {
    case Benchmark::kTpcds:
      return "TPC-DS";
    case Benchmark::kJob:
      return "JOB";
    case Benchmark::kTpcc:
      return "TPC-C";
  }
  return "?";
}

const std::vector<Benchmark>& AllBenchmarks() {
  static const std::vector<Benchmark> kAll = {
      Benchmark::kTpcds, Benchmark::kJob, Benchmark::kTpcc};
  return kAll;
}

size_t PaperQueryCount(Benchmark b) {
  switch (b) {
    case Benchmark::kTpcds:
      return 93000;
    case Benchmark::kJob:
      return 2300;
    case Benchmark::kTpcc:
      return 3958;
  }
  return 0;
}

std::unique_ptr<WorkloadGenerator> CreateGenerator(Benchmark b) {
  switch (b) {
    case Benchmark::kTpcds:
      return MakeTpcdsGenerator();
    case Benchmark::kJob:
      return MakeJobGenerator();
    case Benchmark::kTpcc:
      return MakeTpccGenerator();
  }
  return nullptr;
}

namespace {

// Records per ParallelFor chunk in the print-and-plan pass.
constexpr size_t kFinishGrain = 32;

// Everything about `record` after its RNG draws: the SQL text, the plan, TR2
// featurization, the DBMS heuristic estimate and the serving-layer content
// fingerprint. Reads nothing but the record, so records finish in any order.
Status FinishRecord(const plan::Planner& planner,
                    const engine::DbmsEstimatorOptions& dbms,
                    QueryRecord* record) {
  record->sql_text = sql::Print(record->query);
  WMP_ASSIGN_OR_RETURN(record->plan, planner.CreatePlan(record->query));
  record->plan_features = plan::ExtractPlanFeatures(*record->plan);
  record->dbms_estimate_mb = engine::DbmsEstimateMemoryMb(*record->plan, dbms);
  record->content_fingerprint = ContentFingerprint(*record);
  return Status::OK();
}

}  // namespace

Result<Dataset> BuildDataset(Benchmark benchmark,
                             const DatasetOptions& options) {
  Dataset dataset;
  dataset.generator = CreateGenerator(benchmark);
  if (dataset.generator == nullptr) {
    return Status::InvalidArgument("unknown benchmark");
  }
  dataset.benchmark_name = BenchmarkName(benchmark);
  const size_t n =
      options.num_queries > 0 ? options.num_queries : PaperQueryCount(benchmark);

  plan::Planner planner(&dataset.generator->catalog(), options.planner);
  engine::SimulatorOptions sim_options = options.simulator;
  sim_options.seed ^= options.seed;
  engine::Simulator simulator(sim_options);

  // Phase 1 (serial): the RNG draws and nothing else. One stream feeds every
  // family sample and literal in index order, so the order of these calls
  // defines the dataset. A generation failure stops the draws at its record.
  Rng rng(options.seed);
  dataset.records.resize(n);
  size_t generated = 0;
  Status generation;
  for (; generated < n; ++generated) {
    QueryRecord& record = dataset.records[generated];
    record.family_id = dataset.generator->SampleFamily(&rng);
    Result<sql::Query> query =
        dataset.generator->GenerateQuery(record.family_id, &rng);
    if (!query.ok()) {
      generation = query.status();
      break;
    }
    record.query = std::move(*query);
  }

  // Phase 2 (worker pool): print, plan, featurize, estimate and fingerprint
  // every generated record in its own slot. Safe in parallel: the planner is
  // const and plans into each tree's own arena, the interner answers
  // repeats per thread, and the cardinality models' Zipf prefix tables are
  // thread_local. The error is the one a serial loop returns: the earliest
  // failing record in index order, so a generation failure counts only when
  // every record before it planned.
  std::vector<Status> failures(generated);
  util::ParallelFor(generated, kFinishGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      failures[i] = FinishRecord(planner, options.dbms, &dataset.records[i]);
      if (!failures[i].ok()) break;  // nothing later in the range is first
    }
  });
  for (const Status& failure : failures) WMP_RETURN_IF_ERROR(failure);
  WMP_RETURN_IF_ERROR(generation);

  // Phase 3 (parallel analysis + serial noise stream inside the batch
  // call): simulated memory labels, bitwise identical to the per-query
  // loop.
  std::vector<const plan::PlanNode*> plans(n);
  for (size_t i = 0; i < n; ++i) plans[i] = dataset.records[i].plan.get();
  const std::vector<double> labels = simulator.SimulatePeakMemoryMbBatch(plans);
  for (size_t i = 0; i < n; ++i) {
    dataset.records[i].actual_memory_mb = labels[i];
  }
  return dataset;
}

}  // namespace wmp::workloads
