// Fig. 7 reproduction: inference time per workload (µs) of LearnedWMP vs
// SingleWMP per model family — plus a batch-throughput sweep of the new
// serving path.
//
// Expected shape (paper §IV-B): LearnedWMP achieves 3x-10x faster
// inference — it evaluates the regressor once per workload on a k-dim
// histogram instead of once per member query.
//
// The throughput sweep scores each benchmark's full query set through
// engine::BatchScorer at batch sizes {1, 10, 100, 1000} and thread counts
// {1, hardware_concurrency}, against the seed's scalar PredictWorkload loop
// as the baseline. Before it runs, the model's compiled predictions must be
// bitwise the regressor's own over the same histograms, or the harness
// exits nonzero. Results print as a table and, with --json=PATH (or by
// default at the end of stdout), as JSON records for the bench trajectory.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/batch_scorer.h"
#include "util/parallel.h"
#include "util/timer.h"

using namespace wmp;

namespace {

struct ThroughputRow {
  std::string benchmark;
  // "scalar" (per-query loop) or "batch" (BatchScorer through the compiled
  // bin-space ensemble — the serving path).
  std::string mode;
  int batch_size = 0;
  int threads = 0;
  size_t queries = 0;
  double ms = 0.0;
  double qps = 0.0;
};

std::string ToJson(const ThroughputRow& r) {
  return StrFormat(
      "{\"figure\":\"fig7_batch_throughput\",\"benchmark\":\"%s\","
      "\"mode\":\"%s\",\"batch_size\":%d,\"threads\":%d,"
      "\"queries\":%zu,\"ms\":%.3f,\"queries_per_sec\":%.1f}",
      r.benchmark.c_str(), r.mode.c_str(), r.batch_size, r.threads,
      r.queries, r.ms, r.qps);
}

// Scores the whole dataset through the scalar per-query loop (the seed's
// inference path) once and reports queries/sec. A failed prediction zeroes
// the throughput (mirroring BatchRun) instead of reporting an inflated
// rate over unscored queries.
ThroughputRow ScalarBaseline(const core::ExperimentData& data,
                             const core::LearnedWmpModel& model,
                             int batch_size) {
  const auto batches = engine::MakeConsecutiveBatches(
      data.dataset.records.size(), batch_size);
  Stopwatch sw;
  bool ok = true;
  for (const auto& b : batches) {
    auto p = model.PredictWorkload(data.dataset.records, b.query_indices);
    if (!p.ok()) {
      ok = false;
      break;
    }
  }
  ThroughputRow row;
  row.mode = "scalar";
  row.batch_size = batch_size;
  row.threads = 1;
  row.queries = data.dataset.records.size();
  row.ms = sw.ElapsedMillis();
  row.qps = ok && row.ms > 0
                ? 1e3 * static_cast<double>(row.queries) / row.ms
                : 0.0;
  return row;
}

ThroughputRow BatchRun(const core::ExperimentData& data,
                       const core::LearnedWmpModel& model, int batch_size,
                       int threads) {
  engine::BatchScorerOptions opt;
  opt.num_threads = threads;
  engine::BatchScorer scorer(&model, opt);
  auto p = scorer.ScoreLog(data.dataset.records, batch_size);
  ThroughputRow row;
  row.mode = "batch";
  row.batch_size = batch_size;
  row.threads = threads;
  if (p.ok()) {
    row.queries = p->stats.num_queries;
    row.ms = p->stats.elapsed_ms;
    row.qps = p->stats.queries_per_sec;
  }
  return row;
}

// Bitwise gate on the compiled fast path: scores the full log through the
// model (the compiled ensemble) and through the regressor's raw-space walk
// over the same histograms, and requires every prediction identical. The
// throughput rows are only honest if the fast path is exact, so a breach
// fails the harness (nonzero exit).
bool CompiledMatchesReference(const core::ExperimentData& data,
                              const core::LearnedWmpModel& model) {
  if (model.compiled() == nullptr) {
    std::cerr << "model has no compiled ensemble to check\n";
    return false;
  }
  const auto batches =
      engine::MakeConsecutiveBatches(data.dataset.records.size(), 100);
  auto histograms = model.BinWorkloads(data.dataset.records, batches);
  if (!histograms.ok()) {
    std::cerr << "equivalence binning failed\n";
    return false;
  }
  auto reference = model.regressor().Predict(*histograms);
  if (!reference.ok()) {
    std::cerr << "equivalence scoring failed\n";
    return false;
  }
  auto compiled = model.PredictWorkloads(data.dataset.records, batches);
  if (!compiled.ok()) {
    std::cerr << "equivalence scoring failed\n";
    return false;
  }
  for (size_t i = 0; i < compiled->size(); ++i) {
    if ((*compiled)[i] != (*reference)[i]) {
      std::cerr << "compiled diverges from reference at workload " << i
                << ": " << (*compiled)[i] << " vs " << (*reference)[i]
                << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner("Fig. 7", "inference time per workload (µs)", args);

  std::vector<ThroughputRow> throughput;
  for (workloads::Benchmark benchmark : workloads::AllBenchmarks()) {
    const core::ExperimentConfig cfg = bench::MakeConfig(benchmark, args);
    // One dataset build per benchmark, shared by the Fig. 7 sweep and the
    // batch-throughput sweep below.
    auto data = core::PrepareExperiment(cfg);
    if (!data.ok()) {
      std::cerr << "prepare failed: " << data.status() << "\n";
      return 1;
    }
    auto result = core::RunCoreExperiment(*data);
    if (!result.ok()) {
      std::cerr << "experiment failed: " << result.status() << "\n";
      return 1;
    }
    std::map<std::string, std::pair<double, double>> by_family;
    for (const core::ModelReport& r : result->reports) {
      if (r.name == "SingleWMP-DBMS") continue;
      const bool learned = r.name.rfind("LearnedWMP-", 0) == 0;
      const std::string family = r.name.substr(r.name.find('-') + 1);
      (learned ? by_family[family].second : by_family[family].first) =
          r.infer_us_per_workload;
    }
    TablePrinter table(StrFormat("Fig. 7 — %s inference time (µs/workload)",
                                 result->benchmark.c_str()));
    table.SetHeader({"family", "SingleWMP", "LearnedWMP", "speedup"});
    for (const auto& [family, times] : by_family) {
      table.AddRow({family, StrFormat("%.1f", times.first),
                    StrFormat("%.1f", times.second),
                    StrFormat("%.1fx", times.first /
                                           std::max(times.second, 1e-3))});
    }
    table.Print(std::cout);
    std::cout << "\n";

    // --- Batch-throughput sweep over the same data ---
    core::LearnedWmpOptions lopt;
    lopt.templates.num_templates = result->num_templates;
    lopt.batch_size = cfg.batch_size;
    lopt.seed = cfg.seed;
    auto model = core::LearnedWmpModel::Train(
        data->dataset.records, data->train_indices, *data->dataset.generator,
        lopt);
    if (!model.ok()) {
      std::cerr << "train failed: " << model.status() << "\n";
      return 1;
    }
    if (!CompiledMatchesReference(*data, *model)) {
      std::cerr << "compiled inference is NOT bitwise-equal to the "
                   "reference path\n";
      return 1;
    }
    const int hw = static_cast<int>(util::HardwareThreads());
    TablePrinter tput(StrFormat("%s batch throughput (queries/sec)",
                                result->benchmark.c_str()));
    tput.SetHeader({"batch", "scalar 1t", "compiled 1t",
                    StrFormat("compiled %dt", hw)});
    for (int batch_size : {1, 10, 100, 1000}) {
      ThroughputRow scalar = ScalarBaseline(*data, *model, batch_size);
      ThroughputRow batch1 = BatchRun(*data, *model, batch_size, 1);
      ThroughputRow batch_hw = hw > 1 ? BatchRun(*data, *model, batch_size, hw)
                                      : batch1;
      scalar.benchmark = batch1.benchmark = batch_hw.benchmark =
          result->benchmark;
      tput.AddRow({StrFormat("%d", batch_size), StrFormat("%.0f", scalar.qps),
                   StrFormat("%.0f", batch1.qps),
                   StrFormat("%.0f", batch_hw.qps)});
      throughput.push_back(scalar);
      throughput.push_back(batch1);
      if (hw > 1) throughput.push_back(batch_hw);
    }
    tput.Print(std::cout);
    std::cout << "\n";
  }

  // Machine-readable trajectory: one JSON record per run.
  FILE* out = stdout;
  if (!args.json_path.empty()) {
    out = std::fopen(args.json_path.c_str(), "w");
    if (out == nullptr) {
      std::cerr << "cannot open " << args.json_path << "\n";
      return 1;
    }
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < throughput.size(); ++i) {
    std::fprintf(out, "  %s%s\n", ToJson(throughput[i]).c_str(),
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);
  return 0;
}
