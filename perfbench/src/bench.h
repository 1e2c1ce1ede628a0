#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// \file bench.h
/// The three workloads (see ../README.md for why each exists):
///
///   wire_recurring  closed- and open-loop score traffic over a Unix socket
///                   to `wmpctl serve`, workloads from a fixed pool.
///   wire_novel      the same transport and request size, every workload a
///                   fresh multiset of queries from the whole corpus.
///   retrain         `wmpctl train --publish --connect` against a live node:
///                   log ingest -> elbow k sweep -> Train -> publish ->
///                   remote bitwise verify, then score traffic on the fresh
///                   model.
///
/// An untraced run reports the end-to-end metrics; a traced run replays the
/// same seeded stream through each layer's public entry points and reports
/// the per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string wmpctl;   ///< path of the wmpctl binary under test
  std::string workdir;  ///< scratch directory for logs, models, sockets
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;      ///< every served output passed the bitwise gate
  uint64_t attempted = 0;   ///< operations attempted (requests, retrains)
  uint64_t failed = 0;      ///< failed, refused or mismatched operations
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Offered rate of every open-loop phase, in workloads per second. Well
/// below what one node serves closed-loop on four cores, so the latency
/// phases measure service time, not a growing backlog.
constexpr double kOpenLoopRate = 2000.0;

/// `wire_recurring` / `wire_novel`.
RunOutcome RunWire(const RunOptions& options, bool novel);
/// `retrain`.
RunOutcome RunRetrain(const RunOptions& options);

/// Human-readable report lines go to stderr; stdout's last line stays the
/// JSON result.
void Report(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
