#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "util/hash.h"
#include "util/stats.h"

namespace perfbench {

namespace {

// Counter-based draws: one Mix64 chain per (stream, phase, request, slot),
// so any request can be regenerated without replaying the ones before it.
uint64_t Draw(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = wmp::util::Mix64(seed ^ 0x9e3779b97f4a7c15ull);
  h = wmp::util::Mix64(h ^ a);
  h = wmp::util::Mix64(h ^ b);
  return wmp::util::Mix64(h ^ c);
}

constexpr uint64_t kPoolPhase = 0;  // pool construction, not a traffic phase

}  // namespace

RequestStream::RequestStream(StreamKind kind, uint64_t seed,
                             size_t corpus_size)
    : kind_(kind), seed_(seed), corpus_size_(std::max<size_t>(corpus_size, 1)) {
  if (kind_ == StreamKind::kRecurring) {
    pool_.resize(kRecurringPoolSize);
    for (size_t p = 0; p < pool_.size(); ++p) {
      DrawMultiset(Draw(seed_, kPoolPhase, p, 0), &pool_[p]);
    }
  }
}

void RequestStream::DrawMultiset(uint64_t key,
                                 std::vector<uint32_t>* out) const {
  out->resize(kBatchSize);
  for (int j = 0; j < kBatchSize; ++j) {
    (*out)[static_cast<size_t>(j)] = static_cast<uint32_t>(
        wmp::util::Mix64(key + static_cast<uint64_t>(j)) % corpus_size_);
  }
}

void RequestStream::Members(Phase phase, uint64_t i,
                            std::vector<uint32_t>* out) const {
  const uint64_t key = Draw(seed_, static_cast<uint64_t>(phase), i, 1);
  if (kind_ == StreamKind::kRecurring) {
    // Warm-up walks the pool in order, so kRecurringPoolSize warm-up
    // requests leave every pool workload cached.
    *out = pool_[phase == Phase::kWarmup ? i % pool_.size()
                                         : key % pool_.size()];
  } else {
    DrawMultiset(key, out);
  }
}

workloads::QueryRecord CloneForWire(const workloads::QueryRecord& record) {
  workloads::QueryRecord c;
  c.sql_text = record.sql_text;
  c.plan_features = record.plan_features;
  c.actual_memory_mb = record.actual_memory_mb;
  c.dbms_estimate_mb = record.dbms_estimate_mb;
  c.family_id = record.family_id;
  c.content_fingerprint = record.content_fingerprint;
  return c;
}

std::vector<workloads::QueryRecord> WireMembers(
    const std::vector<workloads::QueryRecord>& corpus,
    const std::vector<uint32_t>& members) {
  std::vector<workloads::QueryRecord> out;
  out.reserve(members.size());
  for (uint32_t q : members) out.push_back(CloneForWire(corpus[q]));
  return out;
}

double WorkloadLabel(const std::vector<workloads::QueryRecord>& corpus,
                     const std::vector<uint32_t>& members) {
  double label = 0.0;
  for (uint32_t q : members) label += corpus[q].actual_memory_mb;
  return label;
}

double TailPercentile(size_t n) {
  if (n >= 1000) return 0.99;
  if (n < 20) return 0.5;
  // Ten samples strictly above nearest rank ceil(p * n) needs p <= 1 - 10/n.
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(n));
}

LatencySummary SummarizeLatency(std::vector<double> latencies_us) {
  LatencySummary s;
  s.samples = latencies_us.size();
  double sum = 0.0;
  for (double v : latencies_us) {
    if (std::isinf(v)) {
      ++s.misses;
    } else {
      sum += v;
    }
  }
  const size_t ok = s.samples - s.misses;
  s.mean_us = ok > 0 ? sum / static_cast<double>(ok) : 0.0;
  s.tail_p = TailPercentile(s.samples);
  s.p50_us = wmp::util::PercentileInPlace(&latencies_us, 0.5);
  s.p90_us = wmp::util::PercentileInPlace(&latencies_us, 0.9);
  s.tail_us = wmp::util::PercentileInPlace(&latencies_us, s.tail_p);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

HostCpu ReadHostCpu() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostCpu cpu;
  double v = 0.0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    cpu.total += v;
    if (field == 7) cpu.steal = v;
  }
  return cpu;
}

double StealShare(const HostCpu& before, const HostCpu& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

int64_t DueOffsetNs(uint64_t i, double rate_per_s) {
  return static_cast<int64_t>(
      std::llround(static_cast<double>(i) * 1e9 / rate_per_s));
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shortest form that still round-trips.
  for (int precision = 6; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

}  // namespace perfbench
