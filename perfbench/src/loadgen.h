#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

/// \file loadgen.h
/// The benchmark's own building blocks, kept free of sockets and processes
/// so tests/loadgen_test.cc can pin them down:
///
///  * RequestStream — the seeded request stream. Request `i` of a phase is
///    a pure function of (kind, seed, phase, i), so every run with one seed
///    sends the identical stream and a replay can regenerate any request.
///  * The percentile rule — a median plus the highest percentile (at most
///    p99) that still has at least ten samples beyond it, with the sample
///    count reported next to it. Failed or refused requests enter the
///    sample as +infinity: they miss every latency limit.
///  * The open-loop schedule — request `i` is due at start + i / rate and is
///    timed from that due time, so a stall charges every request it delays.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/query_record.h"

namespace perfbench {

namespace workloads = wmp::workloads;

/// The paper's workload size s: every request carries one workload of this
/// many queries.
constexpr int kBatchSize = 10;

/// Distinct workloads a `wire_recurring` client cycles through; well below
/// the server's default 4,096-entry histogram cache.
constexpr size_t kRecurringPoolSize = 1024;

enum class StreamKind {
  /// Requests drawn from a fixed pool of workloads: after warm-up every
  /// request is a histogram-cache hit.
  kRecurring,
  /// Every request is a fresh multiset of queries drawn from the whole
  /// corpus: the histogram cache never hits.
  kNovel,
};

/// Disjoint index spaces of one stream, so warm-up traffic never replays
/// measured requests and the closed- and open-loop phases see fresh ones.
enum class Phase : uint64_t { kWarmup = 1, kClosed = 2, kOpen = 3 };

class RequestStream {
 public:
  /// `corpus_size` queries to draw from (>= 1).
  RequestStream(StreamKind kind, uint64_t seed, size_t corpus_size);

  /// Member query indices (into the corpus) of request `i` of `phase`.
  void Members(Phase phase, uint64_t i, std::vector<uint32_t>* out) const;

  /// Recurring streams: the fixed pool (empty for novel streams).
  const std::vector<std::vector<uint32_t>>& pool() const { return pool_; }

 private:
  void DrawMultiset(uint64_t key, std::vector<uint32_t>* out) const;

  StreamKind kind_;
  uint64_t seed_;
  size_t corpus_size_;
  std::vector<std::vector<uint32_t>> pool_;
};

/// A copy of a corpus query as an admission controller ships it: SQL,
/// precomputed plan features, labels and the content fingerprint — never
/// the AST or plan tree (the wire format has no room for them).
workloads::QueryRecord CloneForWire(const workloads::QueryRecord& record);

/// Member records of one request, in member order.
std::vector<workloads::QueryRecord> WireMembers(
    const std::vector<workloads::QueryRecord>& corpus,
    const std::vector<uint32_t>& members);

/// Summed `actual_memory_mb` of the members — the workload label.
double WorkloadLabel(const std::vector<workloads::QueryRecord>& corpus,
                     const std::vector<uint32_t>& members);

/// Highest percentile, capped at 0.99, with at least ten samples beyond it
/// among `n`; 0.5 when `n` is too small for anything above the median.
double TailPercentile(size_t n);

struct LatencySummary {
  size_t samples = 0;  ///< requests attempted (every one is a sample)
  size_t misses = 0;   ///< failed or refused: +infinity in the sample
  double p50_us = 0.0;
  double p90_us = 0.0;
  double tail_p = 0.0;  ///< the percentile `tail_us` reports
  double tail_us = 0.0;
  double mean_us = 0.0;  ///< over the requests that succeeded
};

/// Summarizes latencies (µs; +infinity marks a miss) by the rule above.
LatencySummary SummarizeLatency(std::vector<double> latencies_us);

/// Median (mean of the two middle values for even counts); 0 when empty.
double Median(std::vector<double> values);

/// Machine-wide CPU time from /proc/stat, in clock ticks. `steal` is time
/// the hypervisor ran something else while one of our vCPUs was runnable.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
};
HostCpu ReadHostCpu();
/// Steal share of the CPU time that passed between two readings.
double StealShare(const HostCpu& before, const HostCpu& after);

/// Nanoseconds after the phase start at which open-loop request `i` is due.
int64_t DueOffsetNs(uint64_t i, double rate_per_s);

/// Shortest round-trip JSON rendering of a finite double ("null" for NaN
/// and infinities, which JSON cannot carry).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
