// Unit tests for src/util: Status/Result, RNG + Zipf, binary IO, strings,
// the table printer, and the serving-layer primitives (MPSC queue, latch).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/io.h"
#include "util/mpsc_queue.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/sync.h"
#include "util/table_printer.h"

namespace wmp {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::NotFound("x");
  Status copy = st;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), "x");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseMacros(int v, int* out) {
  WMP_ASSIGN_OR_RETURN(int half, HalveEven(v));
  WMP_RETURN_IF_ERROR(Status::OK());
  *out = half;
  return Status::OK();
}

TEST(ResultTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 4);
  Status st = UseMacros(7, &out);
  EXPECT_TRUE(st.IsInvalidArgument());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 12);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 12);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double mean = 0.0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    mean += v;
  }
  mean /= 20000;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double mean = 0.0, var = 0.0;
  const int n = 50000;
  std::vector<double> xs(n);
  for (int i = 0; i < n; ++i) {
    xs[i] = rng.Normal(5.0, 2.0);
    mean += xs[i];
  }
  mean /= n;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= n;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.25);
}

TEST(RngTest, ForkDivergesFromParent) {
  Rng parent(19);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next());
  EXPECT_LT(same, 4);
}

// ---------- ZipfDistribution ----------

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfDistribution zipf(100, 0.0);
  EXPECT_NEAR(zipf.Pmf(1), 0.01, 1e-12);
  EXPECT_NEAR(zipf.Pmf(100), 0.01, 1e-12);
}

TEST(ZipfTest, SkewConcentratesMassOnLowRanks) {
  ZipfDistribution zipf(1000, 1.0);
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(2));
  EXPECT_GT(zipf.Pmf(2), zipf.Pmf(100));
  EXPECT_GT(zipf.Cdf(10), 0.3);  // heavy head
}

TEST(ZipfTest, CdfIsMonotoneAndComplete) {
  ZipfDistribution zipf(50, 0.8);
  double prev = 0.0;
  for (uint64_t k = 1; k <= 50; ++k) {
    double c = zipf.Cdf(k);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(zipf.Cdf(50), 1.0);
}

TEST(ZipfTest, SamplesMatchPmf) {
  ZipfDistribution zipf(10, 1.0);
  Rng rng(23);
  std::vector<int> counts(11, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    uint64_t k = zipf.Sample(&rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 10u);
    ++counts[k];
  }
  for (uint64_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.Pmf(k), 0.01);
  }
}

// ---------- Binary IO ----------

TEST(BinaryIoTest, RoundTripsAllPrimitives) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(1ULL << 60);
  w.WriteI64(-12345);
  w.WriteDouble(3.14159);
  w.WriteString("workload");
  w.WriteDoubleVec({1.5, -2.5, 0.0});
  w.WriteIntVec({4, -5, 6});

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 7);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 1ULL << 60);
  EXPECT_EQ(r.ReadI64().value(), -12345);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.14159);
  EXPECT_EQ(r.ReadString().value(), "workload");
  EXPECT_EQ(r.ReadDoubleVec().value(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.ReadIntVec().value(), (std::vector<int>{4, -5, 6}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, TruncatedStreamErrors) {
  BinaryWriter w;
  w.WriteU32(1);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadU64().status().IsOutOfRange());
}

TEST(BinaryIoTest, TruncatedVectorErrors) {
  // Each prefix claims more elements than the stream holds. The huge ones
  // wrap `n * sizeof(T)` to a small byte count, which must not pass the
  // length check and reach a vector of n elements.
  for (uint64_t n : {uint64_t{1000}, uint64_t{1} << 61, uint64_t{1} << 62,
                     std::numeric_limits<uint64_t>::max()}) {
    BinaryWriter w;
    w.WriteU64(n);
    BinaryReader doubles(w.buffer());
    EXPECT_TRUE(doubles.ReadDoubleVec().status().IsOutOfRange()) << n;
    BinaryReader ints(w.buffer());
    EXPECT_TRUE(ints.ReadIntVec().status().IsOutOfRange()) << n;
  }
}

TEST(BinaryIoTest, PeekDoesNotConsume) {
  BinaryWriter w;
  w.WriteU32(99);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.PeekU32().value(), 99u);
  EXPECT_EQ(r.ReadU32().value(), 99u);
}

TEST(BinaryIoTest, FileRoundTrip) {
  BinaryWriter w;
  w.WriteString("persisted model");
  const std::string path = testing::TempDir() + "/wmp_io_test.bin";
  ASSERT_TRUE(w.WriteToFile(path).ok());
  auto r = BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ReadString().value(), "persisted model");
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      BinaryReader::FromFile("/nonexistent/x.bin").status().IsIOError());
}

// ---------- strings ----------

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("SELECT * FROM T"), "select * from t");
  EXPECT_EQ(ToUpper("hsjoin"), "HSJOIN");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  select   a  from t ");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "select");
  EXPECT_EQ(parts[3], "t");
}

TEST(StringsTest, JoinAndStartsWith) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(StartsWith("TBSCAN(t)", "TBSCAN"));
  EXPECT_FALSE(StartsWith("TB", "TBSCAN"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "k", 10), "k=10");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.5 MB");
}

// ---------- table printer ----------

TEST(TablePrinterTest, AlignsColumnsAndPadsShortRows) {
  TablePrinter tp("demo");
  tp.SetHeader({"model", "rmse"});
  tp.AddRow({"LearnedWMP-DNN", "169"});
  tp.AddRow({"x"});
  std::ostringstream os;
  tp.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("LearnedWMP-DNN"), std::string::npos);
  EXPECT_NE(out.find("rmse"), std::string::npos);
  EXPECT_EQ(tp.num_rows(), 2u);
}

TEST(TablePrinterTest, NumericRowFormatting) {
  TablePrinter tp;
  tp.AddRow("row", {1.23456, 7.0}, 3);
  std::ostringstream os;
  tp.Print(os);
  EXPECT_NE(os.str().find("1.235"), std::string::npos);
  EXPECT_NE(os.str().find("7.000"), std::string::npos);
}

// ---------- MpscQueue ----------

TEST(MpscQueueTest, FifoAndPopSomeBounds) {
  util::MpscQueue<int> q;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  EXPECT_EQ(q.size(), 5u);
  std::vector<int> out;
  EXPECT_EQ(q.PopSome(3, &out), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.PopSome(10, &out), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.PopSome(1, &out), 0u);
}

TEST(MpscQueueTest, CloseRejectsPushesButDrains) {
  util::MpscQueue<int> q;
  EXPECT_TRUE(q.Push(1));
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_TRUE(q.closed());
  // Queued item is still poppable; the wait reports ready, then closed.
  EXPECT_EQ(q.WaitNonEmpty(), util::QueueWait::kReady);
  std::vector<int> out;
  EXPECT_EQ(q.PopSome(10, &out), 1u);
  EXPECT_EQ(q.WaitNonEmpty(), util::QueueWait::kClosed);
}

TEST(MpscQueueTest, WaitUntilTimesOutWhenEmpty) {
  util::MpscQueue<int> q;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_EQ(q.WaitNonEmptyUntil(deadline), util::QueueWait::kTimeout);
}

TEST(MpscQueueTest, ManyProducersOneConsumerLosesNothing) {
  util::MpscQueue<int> q;
  constexpr int kProducers = 6, kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> got;
  while (got.size() < kProducers * kPerProducer) {
    if (q.WaitNonEmpty() == util::QueueWait::kClosed) break;
    q.PopSome(64, &got);
  }
  for (auto& t : producers) t.join();
  ASSERT_EQ(got.size(), static_cast<size_t>(kProducers * kPerProducer));
  std::set<int> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), got.size());  // every value exactly once
}

// ---------- Latch ----------

TEST(LatchTest, ReleasesAllWaitersTogether) {
  constexpr size_t kThreads = 4;
  util::Latch latch(kThreads + 1);
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      latch.ArriveAndWait();
      released.fetch_add(1);
    });
  }
  EXPECT_EQ(released.load(), 0);  // all parked until the last arrival
  latch.ArriveAndWait();
  for (auto& t : threads) t.join();
  EXPECT_EQ(released.load(), static_cast<int>(kThreads));
  latch.Wait();  // post-release waits return immediately
}

TEST(LatchTest, CountDownThenWait) {
  util::Latch latch(2);
  latch.CountDown();
  std::thread t([&] { latch.CountDown(); });
  latch.Wait();
  t.join();
}

// ---------- Percentiles ----------

TEST(StatsTest, PercentileIsNearestRankNotOneAbove) {
  // 1..100: the nearest-rank p-th percentile of n samples is the
  // ceil(p*n)-th smallest — p99 of 100 is 99, not the max.
  std::vector<double> s;
  for (int i = 1; i <= 100; ++i) s.push_back(static_cast<double>(i));
  EXPECT_EQ(util::PercentileInPlace(&s, 0.99), 99.0);
  EXPECT_EQ(util::PercentileInPlace(&s, 0.50), 50.0);
  EXPECT_EQ(util::PercentileInPlace(&s, 1.00), 100.0);
  EXPECT_EQ(util::PercentileInPlace(&s, 0.0), 1.0);
  std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(util::PercentileInPlace(&four, 0.50), 2.0);  // 2nd of 4
  EXPECT_EQ(util::PercentileInPlace(&four, 0.51), 3.0);
  std::vector<double> empty;
  EXPECT_EQ(util::PercentileInPlace(&empty, 0.5), 0.0);
}

}  // namespace
}  // namespace wmp
