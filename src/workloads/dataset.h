#ifndef WMP_WORKLOADS_DATASET_H_
#define WMP_WORKLOADS_DATASET_H_

/// \file dataset.h
/// End-to-end dataset construction: generate queries, plan them, simulate
/// their actual peak memory, and record the DBMS heuristic estimates —
/// i.e., fabricate the query-log dump that the paper's training pipeline
/// consumes in step TR1.

#include <memory>
#include <string>
#include <vector>

#include "engine/dbms_estimator.h"
#include "engine/simulator.h"
#include "plan/planner.h"
#include "workloads/generator.h"
#include "workloads/job.h"
#include "workloads/query_record.h"
#include "workloads/tpcc.h"
#include "workloads/tpcds.h"

namespace wmp::workloads {

/// The three evaluation benchmarks of the paper (§IV "Datasets").
enum class Benchmark { kTpcds, kJob, kTpcc };

/// Paper-style benchmark name.
const char* BenchmarkName(Benchmark b);

/// All benchmarks in paper order.
const std::vector<Benchmark>& AllBenchmarks();

/// Query counts used in the paper: 93,000 / 2,300 / 3,958.
size_t PaperQueryCount(Benchmark b);

/// Factory for the benchmark's generator.
std::unique_ptr<WorkloadGenerator> CreateGenerator(Benchmark b);

/// Dataset construction knobs.
struct DatasetOptions {
  size_t num_queries = 0;  ///< 0 = PaperQueryCount(benchmark)
  uint64_t seed = 42;
  engine::SimulatorOptions simulator;
  engine::DbmsEstimatorOptions dbms;
  plan::PlannerOptions planner;
};

/// \brief A materialized query log for one benchmark.
struct Dataset {
  std::string benchmark_name;
  std::unique_ptr<WorkloadGenerator> generator;  ///< owns the catalog
  std::vector<QueryRecord> records;

  Dataset() = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;
};

/// \brief Builds the full dataset for `benchmark`.
///
/// Only the RNG draws are serial: one stream samples every record's family
/// and literals in index order, and that order defines the dataset. Printing
/// the SQL, planning, featurization, the DBMS estimate and the fingerprint
/// then run on the worker pool, one record per slot, and the labels' batch
/// simulation draws its noise serially in index order. Every record is so
/// the same at every thread count. On failure returns the error of the
/// earliest failing record in index order.
Result<Dataset> BuildDataset(Benchmark benchmark,
                             const DatasetOptions& options = {});

}  // namespace wmp::workloads

#endif  // WMP_WORKLOADS_DATASET_H_
