// The benchmark's own tests: the seeded request stream, the percentile and
// sample-count rule, miss accounting, the open-loop schedule, and span
// self-time bookkeeping.

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kCorpus = 93000;

std::vector<std::vector<uint32_t>> Prefix(const RequestStream& s, Phase phase,
                                          uint64_t n) {
  std::vector<std::vector<uint32_t>> out(n);
  for (uint64_t i = 0; i < n; ++i) s.Members(phase, i, &out[i]);
  return out;
}

TEST(RequestStream, SameSeedSameStream) {
  for (StreamKind kind : {StreamKind::kRecurring, StreamKind::kNovel}) {
    const RequestStream a(kind, 7, kCorpus), b(kind, 7, kCorpus);
    for (Phase phase : {Phase::kWarmup, Phase::kClosed, Phase::kOpen}) {
      EXPECT_EQ(Prefix(a, phase, 500), Prefix(b, phase, 500));
    }
  }
}

TEST(RequestStream, DifferentSeedDifferentStream) {
  for (StreamKind kind : {StreamKind::kRecurring, StreamKind::kNovel}) {
    const RequestStream a(kind, 7, kCorpus), b(kind, 8, kCorpus);
    EXPECT_NE(Prefix(a, Phase::kOpen, 100), Prefix(b, Phase::kOpen, 100));
  }
}

TEST(RequestStream, RequestsAreRandomAccess) {
  const RequestStream s(StreamKind::kNovel, 3, kCorpus);
  const auto prefix = Prefix(s, Phase::kClosed, 64);
  std::vector<uint32_t> m;
  s.Members(Phase::kClosed, 40, &m);
  EXPECT_EQ(m, prefix[40]);
}

TEST(RequestStream, ShapeAndRange) {
  for (StreamKind kind : {StreamKind::kRecurring, StreamKind::kNovel}) {
    const RequestStream s(kind, 11, kCorpus);
    for (const auto& members : Prefix(s, Phase::kOpen, 2000)) {
      ASSERT_EQ(members.size(), static_cast<size_t>(kBatchSize));
      for (uint32_t q : members) EXPECT_LT(q, kCorpus);
    }
  }
}

TEST(RequestStream, RecurringStaysInsideItsPool) {
  const RequestStream s(StreamKind::kRecurring, 5, kCorpus);
  ASSERT_EQ(s.pool().size(), kRecurringPoolSize);
  const std::set<std::vector<uint32_t>> pool(s.pool().begin(), s.pool().end());
  std::set<std::vector<uint32_t>> seen;
  for (const auto& m : Prefix(s, Phase::kClosed, 20000)) {
    EXPECT_TRUE(pool.count(m));
    seen.insert(m);
  }
  // 20k draws from 1,024 entries visit essentially all of them, and the
  // whole pool fits the server's default 4,096-entry histogram cache.
  EXPECT_GT(seen.size(), kRecurringPoolSize - 8);
  EXPECT_LT(kRecurringPoolSize, 4096u);
  // Warm-up visits every pool workload exactly once.
  const auto warm = Prefix(s, Phase::kWarmup, kRecurringPoolSize);
  EXPECT_EQ(std::set<std::vector<uint32_t>>(warm.begin(), warm.end()), pool);
}

TEST(RequestStream, NovelNeverRepeatsAWorkload) {
  const RequestStream s(StreamKind::kNovel, 5, kCorpus);
  std::set<std::vector<uint32_t>> seen;
  for (Phase phase : {Phase::kWarmup, Phase::kClosed, Phase::kOpen}) {
    for (const auto& m : Prefix(s, phase, 20000)) {
      std::vector<uint32_t> key = m;
      std::sort(key.begin(), key.end());  // a workload is a multiset
      EXPECT_TRUE(seen.insert(key).second);
    }
  }
  // Distinct member queries exceed the 65,536-entry template-id cache.
  std::set<uint32_t> queries;
  for (const auto& m : Prefix(s, Phase::kClosed, 20000)) {
    queries.insert(m.begin(), m.end());
  }
  EXPECT_GT(queries.size(), 65536u);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailPercentile(100000), 0.99);
  EXPECT_DOUBLE_EQ(TailPercentile(200), 0.95);
  EXPECT_DOUBLE_EQ(TailPercentile(100), 0.9);
  EXPECT_DOUBLE_EQ(TailPercentile(10), 0.5);
  for (size_t n : {20u, 37u, 100u, 999u, 1000u, 5000u}) {
    const double p = TailPercentile(n);
    const size_t rank = static_cast<size_t>(std::ceil(p * n));
    EXPECT_GE(n - rank, 10u) << n;
  }
}

TEST(Percentile, NearestRankAndSampleCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const LatencySummary s = SummarizeLatency(v);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_DOUBLE_EQ(s.p50_us, 500.0);
  EXPECT_DOUBLE_EQ(s.p90_us, 900.0);
  EXPECT_DOUBLE_EQ(s.tail_p, 0.99);
  EXPECT_DOUBLE_EQ(s.tail_us, 990.0);
  EXPECT_DOUBLE_EQ(s.mean_us, 500.5);
}

TEST(Percentile, FailedAndRefusedRequestsMissEveryLimit) {
  std::vector<double> v(1000, 100.0);
  const double miss = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 11; ++i) v[static_cast<size_t>(i) * 7] = miss;
  const LatencySummary s = SummarizeLatency(v);
  EXPECT_EQ(s.samples, 1000u);  // misses stay in the denominator
  EXPECT_EQ(s.misses, 11u);
  EXPECT_TRUE(std::isinf(s.tail_us));  // 11 misses > 1% of 1,000
  EXPECT_DOUBLE_EQ(s.p50_us, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_us, 100.0);  // mean over the successes only
  EXPECT_EQ(JsonNumber(s.tail_us), "null");
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(HostCpu, StealShareIsStealOverElapsedCpuTime) {
  EXPECT_DOUBLE_EQ(StealShare({10, 1000}, {30, 1400}), 0.05);
  EXPECT_DOUBLE_EQ(StealShare({10, 1000}, {10, 1000}), 0.0);
}

TEST(OpenLoop, ScheduleIsFixedByTheRate) {
  EXPECT_EQ(DueOffsetNs(0, 2000), 0);
  EXPECT_EQ(DueOffsetNs(1, 2000), 500000);
  EXPECT_EQ(DueOffsetNs(2000, 2000), 1000000000);
}

TEST(Json, NumbersRoundTrip) {
  for (double v : {0.0, 1.0, 0.1, 123456.789, 1e-9, 2.5e12}) {
    EXPECT_EQ(std::strtod(JsonNumber(v).c_str(), nullptr), v);
  }
  EXPECT_EQ(JsonNumber(0.1), "0.1");
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  SpanLog log;
  const uint32_t root = log.Add("request", SpanLog::kNoParent, 1, 0, 100);
  log.Add("a", root, 1, 10, 30);
  log.Add("b", root, 1, 20, 50);   // overlaps a: union 10..50 = 40
  log.Add("c", root, 1, 90, 120);  // clipped to the parent: 10
  const auto t = log.Summarize();
  EXPECT_DOUBLE_EQ(t.at("request").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(t.at("request").self_ns, 50.0);
  EXPECT_DOUBLE_EQ(t.at("a").self_ns, 20.0);
  EXPECT_EQ(t.at("b").count, 1u);
}

TEST(Spans, MergeRebasesParents) {
  SpanLog a, b;
  a.Add("x", SpanLog::kNoParent, 0, 0, 10);
  const uint32_t root = b.Add("request", SpanLog::kNoParent, 0, 0, 10);
  b.Add("child", root, 0, 0, 4);
  a.Merge(std::move(b));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.Summarize().at("request").self_ns, 6.0);
}

}  // namespace
}  // namespace perfbench
