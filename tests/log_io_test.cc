// Tests for query-log text IO — the deployment ingestion path — and for
// generator-free training from an ingested log.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "plan/explain.h"
#include "sql/printer.h"
#include "util/parallel.h"
#include "workloads/dataset.h"
#include "workloads/log_io.h"

namespace wmp::workloads {
namespace {

Dataset SmallDataset() {
  DatasetOptions opt;
  opt.num_queries = 80;
  opt.seed = 31;
  auto d = BuildDataset(Benchmark::kTpcc, opt);
  EXPECT_TRUE(d.ok());
  return std::move(*d);
}

TEST(LogIoTest, SerializeParseRoundTrip) {
  Dataset dataset = SmallDataset();
  const std::string text = SerializeQueryLog(dataset.records);
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), dataset.records.size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    const QueryRecord& a = dataset.records[i];
    const QueryRecord& b = (*parsed)[i];
    EXPECT_EQ(a.sql_text, b.sql_text);
    EXPECT_DOUBLE_EQ(a.actual_memory_mb, b.actual_memory_mb);
    EXPECT_DOUBLE_EQ(a.dbms_estimate_mb, b.dbms_estimate_mb);
    EXPECT_EQ(a.family_id, b.family_id);
    // Plans reconstruct exactly (EXPLAIN uses %.17g).
    EXPECT_EQ(plan::Explain(*a.plan), plan::Explain(*b.plan));
    EXPECT_EQ(a.plan_features, b.plan_features);
  }
}

TEST(LogIoTest, FileRoundTrip) {
  Dataset dataset = SmallDataset();
  const std::string path = ::testing::TempDir() + "/wmp_querylog.txt";
  ASSERT_TRUE(WriteQueryLog(dataset.records, path).ok());
  auto loaded = LoadQueryLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), dataset.records.size());
}

TEST(LogIoTest, OptionalFieldsDefault) {
  const std::string text =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: 12.5\n"
      "RETURN in=1 out=1 width=8\n"
      "  TBSCAN(t) in=10 out=1 width=8\n"
      "\n";
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_DOUBLE_EQ((*parsed)[0].actual_memory_mb, 12.5);
  EXPECT_DOUBLE_EQ((*parsed)[0].dbms_estimate_mb, 0.0);
  EXPECT_EQ((*parsed)[0].family_id, -1);
  EXPECT_EQ((*parsed)[0].query.from[0].table, "t");
}

TEST(LogIoTest, MalformedLogsRejected) {
  // No records at all.
  EXPECT_TRUE(ParseQueryLog("").status().IsInvalidArgument());
  // EXPLAIN block without a query header.
  EXPECT_TRUE(ParseQueryLog("RETURN in=1 out=1 width=8\n\n")
                  .status()
                  .IsInvalidArgument());
  // Query without a plan.
  EXPECT_TRUE(ParseQueryLog("-- query: SELECT a FROM t\n\n")
                  .status()
                  .IsInvalidArgument());
  // Unknown directive.
  EXPECT_TRUE(ParseQueryLog("-- bogus: 1\n").status().IsInvalidArgument());
  // Broken SQL inside an otherwise valid record.
  EXPECT_FALSE(ParseQueryLog("-- query: SELECT FROM\n"
                             "RETURN in=1 out=1 width=8\n\n")
                   .ok());
  // Duplicate query header in one record.
  EXPECT_TRUE(ParseQueryLog("-- query: SELECT a FROM t\n"
                            "-- query: SELECT b FROM t\n"
                            "RETURN in=1 out=1 width=8\n\n")
                  .status()
                  .IsInvalidArgument());
}

TEST(LogIoTest, WriteRejectsPlanlessRecords) {
  std::vector<QueryRecord> records(1);
  records[0].sql_text = "SELECT a FROM t";
  EXPECT_TRUE(WriteQueryLog(records, "/tmp/never_written.txt")
                  .IsInvalidArgument());
}

TEST(LogIoTest, TrainFromIngestedLogEndToEnd) {
  // The wmpctl workflow: generate -> serialize -> parse -> train -> predict,
  // with no generator available on the training side.
  DatasetOptions opt;
  opt.num_queries = 400;
  opt.seed = 33;
  auto dataset = BuildDataset(Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());
  auto reloaded = ParseQueryLog(SerializeQueryLog(dataset->records));
  ASSERT_TRUE(reloaded.ok());

  core::LearnedWmpOptions lopt;
  lopt.templates.num_templates = 8;
  auto model = core::LearnedWmpModel::Train(
      *reloaded, core::AllIndices(reloaded->size()), lopt);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  std::vector<uint32_t> batch{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto pred = model->PredictWorkload(*reloaded, batch);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(*pred, 0.0);
}

TEST(QueryLogReaderTest, ChunkedReadMatchesWholeFileLoad) {
  DatasetOptions opt;
  opt.num_queries = 100;
  opt.seed = 47;
  auto dataset = BuildDataset(Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());
  const std::string path = ::testing::TempDir() + "/wmp_chunked_log.txt";
  ASSERT_TRUE(WriteQueryLog(dataset->records, path).ok());
  auto whole = LoadQueryLog(path);
  ASSERT_TRUE(whole.ok());

  for (size_t chunk : {size_t{1}, size_t{7}, size_t{100}, size_t{1000}}) {
    auto reader = QueryLogReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<QueryRecord> streamed;
    size_t chunks = 0;
    for (;;) {
      auto n = reader->ReadChunk(chunk, &streamed);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      if (*n == 0) break;
      EXPECT_LE(*n, chunk);
      ++chunks;
    }
    EXPECT_TRUE(reader->exhausted());
    EXPECT_EQ(reader->records_read(), whole->size());
    ASSERT_EQ(streamed.size(), whole->size()) << "chunk=" << chunk;
    if (chunk < whole->size()) {
      EXPECT_GT(chunks, 1u);
    }
    for (size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].sql_text, (*whole)[i].sql_text);
      EXPECT_EQ(streamed[i].plan_features, (*whole)[i].plan_features);
      EXPECT_DOUBLE_EQ(streamed[i].actual_memory_mb,
                       (*whole)[i].actual_memory_mb);
      // Cache keys must not depend on how the record was ingested.
      EXPECT_EQ(streamed[i].content_fingerprint,
                (*whole)[i].content_fingerprint);
      EXPECT_NE(streamed[i].content_fingerprint, 0u);
    }
  }
}

TEST(QueryLogReaderTest, EofAndEmptyAndMissingFile) {
  EXPECT_TRUE(QueryLogReader::Open("/no/such/wmp/log.txt")
                  .status()
                  .IsIOError());
  const std::string path = ::testing::TempDir() + "/wmp_empty_log.txt";
  { std::ofstream out(path, std::ios::trunc); }
  auto reader = QueryLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<QueryRecord> out;
  auto n = reader->ReadChunk(16, &out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_TRUE(reader->exhausted());
  // Further reads stay at a clean EOF.
  auto again = reader->ReadChunk(16, &out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(QueryLogReaderTest, MalformedRecordFailsWithLineAnnotatedError) {
  const std::string path = ::testing::TempDir() + "/wmp_malformed_log.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "-- query: SELECT a FROM t\n"
        << "-- memory_mb: 12.5\n"
        << "RETURN in=1 out=1 width=8\n"
        << "  TBSCAN(t) in=10 out=1 width=8\n"
        << "\n"
        << "-- bogus-directive: nope\n"
        << "\n";
  }
  auto reader = QueryLogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<QueryRecord> out;
  auto first = reader->ReadChunk(1, &out);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 1u);
  auto second = reader->ReadChunk(1, &out);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("line 6"), std::string::npos)
      << second.status().ToString();
}

// ---------- LoadQueryLog: one read, lines parsed in place ----------

std::string WriteBytes(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return path;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Two plan trees alike in every field, doubles by their bits. As strict
// as comparing their EXPLAIN text, and cheap enough for 3,000-plan logs
// under the sanitizers.
bool SamePlan(const plan::PlanNode& a, const plan::PlanNode& b) {
  if (a.op != b.op || a.table != b.table || a.detail != b.detail ||
      a.num_keys != b.num_keys || a.hash_mode != b.hash_mode ||
      Bits(a.input_card) != Bits(b.input_card) ||
      Bits(a.output_card) != Bits(b.output_card) ||
      Bits(a.true_input_card) != Bits(b.true_input_card) ||
      Bits(a.true_output_card) != Bits(b.true_output_card) ||
      Bits(a.row_width) != Bits(b.row_width) ||
      a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t c = 0; c < a.children.size(); ++c) {
    if (!SamePlan(*a.children[c], *b.children[c])) return false;
  }
  return true;
}

// Field by field, doubles by their bits.
void ExpectSameRecords(const std::vector<QueryRecord>& got,
                       const std::vector<QueryRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sql_text, want[i].sql_text) << i;
    EXPECT_EQ(Bits(got[i].actual_memory_mb), Bits(want[i].actual_memory_mb));
    EXPECT_EQ(Bits(got[i].dbms_estimate_mb), Bits(want[i].dbms_estimate_mb));
    EXPECT_EQ(got[i].family_id, want[i].family_id) << i;
    EXPECT_TRUE(SamePlan(*got[i].plan, *want[i].plan))
        << i << ":\n" << plan::Explain(*got[i].plan) << "against\n"
        << plan::Explain(*want[i].plan);
    EXPECT_EQ(got[i].plan_features, want[i].plan_features) << i;
    EXPECT_EQ(got[i].content_fingerprint, want[i].content_fingerprint) << i;
  }
}

// Loads `bytes` from a file and parses them in memory; both must agree.
void ExpectLoadEqualsParse(const std::string& name, const std::string& bytes) {
  auto parsed = ParseQueryLog(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto loaded = LoadQueryLog(WriteBytes(name, bytes));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameRecords(*loaded, *parsed);
}

TEST(LogIoTest, LoadEqualsParseWithoutTrailingNewline) {
  std::string text = SerializeQueryLog(SmallDataset().records);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  ExpectLoadEqualsParse("wmp_no_newline_log.txt", text);
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), SmallDataset().records.size());
}

TEST(LogIoTest, LoadEqualsParseWhenTheFileEndsInABlankLine) {
  const std::string text = SerializeQueryLog(SmallDataset().records);
  ASSERT_EQ(text.substr(text.size() - 2), "\n\n");
  ExpectLoadEqualsParse("wmp_blank_end_log.txt", text);
  ExpectLoadEqualsParse("wmp_blank_ends_log.txt", text + "  \n\n");
}

// A FIFO has no size to read and cannot seek. The log is larger than the
// 64 KB first buffer and than a pipe's capacity, so the read grows its
// buffer and takes several reads.
TEST(LogIoTest, LoadReadsAFifo) {
  DatasetOptions opt;
  opt.num_queries = 400;
  opt.seed = 37;
  auto dataset = BuildDataset(Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());
  const std::string text = SerializeQueryLog(dataset->records);
  ASSERT_GT(text.size(), size_t{128} << 10);
  const std::string path = ::testing::TempDir() + "/wmp_log_fifo";
  ::unlink(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);  // waits for the reader
    out << text;
  });
  auto loaded = LoadQueryLog(path);
  writer.join();
  ::unlink(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok());
  ExpectSameRecords(*loaded, *parsed);
}

TEST(LogIoTest, LoadFailsOnEmptyAndMissingFiles) {
  auto empty = LoadQueryLog(WriteBytes("wmp_empty_whole_log.txt", ""));
  ASSERT_TRUE(empty.status().IsInvalidArgument());
  EXPECT_EQ(empty.status().message(), "query log contains no records");
  auto missing = LoadQueryLog("/no/such/wmp/log.txt");
  ASSERT_TRUE(missing.status().IsIOError());
  EXPECT_EQ(missing.status().message(),
            "cannot open for read: /no/such/wmp/log.txt");
}

// A bad directive mid-log, a last record without an EXPLAIN block and
// without a final newline, and SQL that does not parse: both functions
// name the same line.
TEST(LogIoTest, MalformedRecordReportsTheSameLineThroughLoadAndParse) {
  const std::string good =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: 12.5\n"
      "RETURN in=1 out=1 width=8\n"
      "  TBSCAN(t) in=10 out=1 width=8\n"
      "\n";
  const struct {
    std::string text;
    std::string line;
  } cases[] = {
      {good + "-- bogus-directive: nope\n\n" + good, "line 6"},
      {good + good + "-- query: SELECT b FROM t\n-- memory_mb: 3", "line 12"},
      {good + "-- memory_mb: 3\n-- query: SELECT FROM t\n" +
           "RETURN in=1 out=1 width=8\n\n",
       "query at line 7"},
  };
  for (const auto& c : cases) {
    const Status parsed = ParseQueryLog(c.text).status();
    const Status loaded =
        LoadQueryLog(WriteBytes("wmp_malformed_whole_log.txt", c.text))
            .status();
    ASSERT_TRUE(parsed.IsInvalidArgument()) << parsed.ToString();
    EXPECT_EQ(loaded.ToString(), parsed.ToString());
    EXPECT_NE(parsed.message().find(c.line), std::string::npos)
        << parsed.ToString();
  }
}

// A memory figure or a plan cardinality that is NaN, infinite or not a
// number at all fails the load at its line, through both functions.
TEST(LogIoTest, NonFiniteOrNonNumericFieldsAreRejectedAtTheirLine) {
  const std::string good =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: 12.5\n"
      "RETURN in=1 out=1 width=8\n"
      "  TBSCAN(t) in=10 out=1 width=8\n"
      "\n";
  const std::string plan =
      "RETURN in=1 out=1 width=8\n"
      "  TBSCAN(t) in=10 out=1 width=8\n"
      "\n";
  const struct {
    std::string text;
    std::string line;
  } cases[] = {
      {good + "-- query: SELECT a FROM t\n-- memory_mb: nan\n" + plan,
       "line 7"},
      {good + "-- query: SELECT a FROM t\n-- memory_mb: abc\n" + plan,
       "line 7"},
      {good + "-- query: SELECT a FROM t\n-- memory_mb: 2\n" +
           "-- dbms_estimate_mb: inf\n" + plan,
       "line 8"},
      {good + "-- query: SELECT a FROM t\n-- memory_mb: 2\n" +
           "RETURN in=1 out=1 width=8\n" +
           "  TBSCAN(t) in=nan out=nan width=8\n\n",
       "EXPLAIN block at line 8: line 2"},
      {good + "-- query: SELECT a FROM t\n-- memory_mb: 2\n" +
           "RETURN in=1 out=1 width=8\n" +
           "  TBSCAN(t) in=1abc out=1 width=8\n\n",
       "EXPLAIN block at line 8: line 2"},
  };
  for (const auto& c : cases) {
    const Status parsed = ParseQueryLog(c.text).status();
    const Status loaded =
        LoadQueryLog(WriteBytes("wmp_non_finite_log.txt", c.text)).status();
    EXPECT_TRUE(parsed.IsInvalidArgument()) << parsed.ToString();
    EXPECT_EQ(loaded.ToString(), parsed.ToString());
    EXPECT_NE(parsed.message().find(c.line), std::string::npos)
        << parsed.ToString();
  }
}

// ---------- Parallel ingest: serial framing, finishing on the pool ----------

// Reads `path` to its end through QueryLogReader in `chunk`-record chunks.
Result<std::vector<QueryRecord>> ReadInChunks(const std::string& path,
                                              size_t chunk) {
  WMP_ASSIGN_OR_RETURN(QueryLogReader reader, QueryLogReader::Open(path));
  std::vector<QueryRecord> records;
  for (;;) {
    WMP_ASSIGN_OR_RETURN(size_t appended, reader.ReadChunk(chunk, &records));
    if (appended == 0) return records;
  }
}

// ExpectSameRecords, plus each SQL AST printed back when `want_sql` is
// given.
void ExpectSameParse(const Result<std::vector<QueryRecord>>& got,
                     const std::vector<QueryRecord>& want,
                     const std::vector<std::string>* want_sql,
                     const std::string& where) {
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  SCOPED_TRACE(where);
  ExpectSameRecords(*got, want);
  if (want_sql == nullptr) return;
  ASSERT_EQ(got->size(), want_sql->size());
  for (size_t i = 0; i < want_sql->size(); ++i) {
    ASSERT_EQ(sql::Print((*got)[i].query), (*want_sql)[i]) << "record " << i;
  }
}

std::vector<std::string> PrintQueries(const std::vector<QueryRecord>& records) {
  std::vector<std::string> out;
  for (const QueryRecord& r : records) out.push_back(sql::Print(r.query));
  return out;
}

// Records are parsed on the pool, each into its own slot; every entry
// point at every thread count must give the single-thread parse bit for
// bit.
TEST(LogIoTest, ParallelIngestEqualsSerial) {
  for (Benchmark benchmark :
       {Benchmark::kTpcds, Benchmark::kTpcc, Benchmark::kJob}) {
    DatasetOptions opt;
    opt.num_queries = 3000;
    opt.seed = 43;
    auto dataset = BuildDataset(benchmark, opt);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    const std::string text = SerializeQueryLog(dataset->records);
    const std::string path = WriteBytes("wmp_parallel_log.txt", text);
    std::vector<QueryRecord> serial;
    {
      util::ScopedParallelism one(1);
      auto parsed = ParseQueryLog(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      serial = std::move(*parsed);
    }
    ASSERT_EQ(serial.size(), opt.num_queries);
    const std::vector<std::string> serial_sql = PrintQueries(serial);
    for (int threads : {1, 0}) {  // 0: the process default, every core
      util::ScopedParallelism scope(threads);
      const std::string at = std::string(BenchmarkName(benchmark)) +
                             " threads=" + std::to_string(threads);
      // One thread parses each query exactly as the reference did, so its
      // ASTs are printed back only where the pool ran (printing 3,000
      // ASTs is the slowest step under TSan).
      const std::vector<std::string>* want_sql =
          threads == 1 ? nullptr : &serial_sql;
      ExpectSameParse(LoadQueryLog(path), serial, want_sql, at + " load");
      ExpectSameParse(ParseQueryLog(text), serial, want_sql, at + " parse");
      for (size_t chunk : {size_t{1}, size_t{7}, size_t{1000}}) {
        ExpectSameParse(ReadInChunks(path, chunk), serial, want_sql,
                        at + " chunk=" + std::to_string(chunk));
      }
    }
  }
}

// `n` small valid records, five lines each.
std::string GoodRecords(size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out +=
        "-- query: SELECT a FROM t\n"
        "-- memory_mb: 12.5\n"
        "RETURN in=1 out=1 width=8\n"
        "  TBSCAN(t) in=10 out=1 width=8\n"
        "\n";
  }
  return out;
}

// Every entry point at 1 and 4 threads; returns the statuses' strings.
std::vector<std::string> LoadStatuses(const std::string& text) {
  const std::string path = WriteBytes("wmp_first_error_log.txt", text);
  std::vector<std::string> out;
  for (int threads : {1, 4}) {
    util::ScopedParallelism scope(threads);
    out.push_back(ParseQueryLog(text).status().ToString());
    out.push_back(LoadQueryLog(path).status().ToString());
    for (size_t chunk : {size_t{7}, size_t{1000}}) {
      out.push_back(ReadInChunks(path, chunk).status().ToString());
    }
  }
  return out;
}

// Two broken records far apart, so at 4 threads they land in different
// pool chunks: the load fails with the first one in file order, whichever
// kind of failure each is. SQL and EXPLAIN are parsed on the pool after
// framing; a directive or a header figure fails framing itself.
TEST(LogIoTest, FirstErrorInFileOrderAtEveryThreadCount) {
  // Each broken record starts at line 1501, after 300 good ones.
  const std::string bad_sql =
      "-- query: SELECT FROM t\n"
      "-- memory_mb: 1\n"
      "RETURN in=1 out=1 width=8\n"
      "\n";
  const std::string bad_directive =
      "-- query: SELECT a FROM t\n"
      "-- bogus: 1\n"
      "RETURN in=1 out=1 width=8\n"
      "\n";
  const std::string bad_memory =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: abc\n"
      "RETURN in=1 out=1 width=8\n"
      "\n";
  const std::string bad_explain =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: 1\n"
      "RETURN in=1 out=1 width=8\n"
      "  TBSCAN(t) in=x out=1 width=8\n"
      "\n";
  const struct {
    const std::string& first;
    const std::string& second;
    std::string message;
  } cases[] = {
      {bad_sql, bad_directive, "InvalidArgument: query at line 1501: "},
      {bad_directive, bad_sql,
       "InvalidArgument: line 1502: unknown log directive"},
      {bad_memory, bad_explain,
       "InvalidArgument: line 1502: non-numeric value 'abc'"},
      {bad_explain, bad_memory,
       "InvalidArgument: EXPLAIN block at line 1503: line 2: non-numeric "
       "value 'x' for in"},
      {bad_explain, bad_sql, "InvalidArgument: EXPLAIN block at line 1503: "},
      {bad_sql, bad_explain, "InvalidArgument: query at line 1501: "},
  };
  for (const auto& c : cases) {
    const std::string text = GoodRecords(300) + c.first + GoodRecords(300) +
                             c.second + GoodRecords(300);
    const std::vector<std::string> statuses = LoadStatuses(text);
    EXPECT_EQ(statuses[0].rfind(c.message, 0), 0u) << statuses[0];
    for (const std::string& status : statuses) {
      EXPECT_EQ(status, statuses[0]);
    }
  }
}

// A directive between two plan lines leaves the block in two pieces of the
// text. It still parses as one plan, and the plan parser still numbers the
// block's plan lines only.
TEST(LogIoTest, DirectiveBetweenPlanLinesStillParses) {
  const std::string contiguous =
      "-- query: SELECT a FROM t\n"
      "-- memory_mb: 12.5\n"
      "-- family: 3\n"
      "RETURN in=1 out=1 width=8\n"
      "  TBSCAN(t) in=10 out=1 width=8\n"
      "\n";
  const std::string interleaved =
      "-- query: SELECT a FROM t\n"
      "RETURN in=1 out=1 width=8\n"
      "-- family: 3\n"
      "  TBSCAN(t) in=10 out=1 width=8\n"
      "-- memory_mb: 12.5\n"
      "\n";
  std::string contiguous_log, interleaved_log;
  for (int i = 0; i < 200; ++i) {
    contiguous_log += contiguous;
    interleaved_log += interleaved;
  }
  auto want = ParseQueryLog(contiguous_log);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ((*want)[0].plan->TreeSize(), 2u);
  EXPECT_EQ((*want)[0].family_id, 3);
  const std::vector<std::string> want_sql = PrintQueries(*want);
  const std::string path = WriteBytes("wmp_interleaved_log.txt",
                                      interleaved_log);
  for (int threads : {1, 4}) {
    util::ScopedParallelism scope(threads);
    ExpectSameParse(ParseQueryLog(interleaved_log), *want, &want_sql,
                    "parse");
    ExpectSameParse(LoadQueryLog(path), *want, &want_sql, "load");
    ExpectSameParse(ReadInChunks(path, 7), *want, &want_sql, "chunk=7");
  }

  const std::string broken = GoodRecords(1) +
                             "-- query: SELECT a FROM t\n"
                             "RETURN in=1 out=1 width=8\n"
                             "-- family: 3\n"
                             "  TBSCAN(t) in=x out=1 width=8\n"
                             "\n";
  for (const std::string& status : LoadStatuses(broken)) {
    EXPECT_EQ(status,
              "InvalidArgument: EXPLAIN block at line 7: line 2: "
              "non-numeric value 'x' for in");
  }
}

// `-- family:` holds a whole number in [0, INT_MAX]; anything else fails
// the load at its line, as a bad memory figure does.
TEST(LogIoTest, FamilyMustBeAWholeNumberInRange) {
  const auto log = [](const std::string& family) {
    return GoodRecords(1) +
           "-- query: SELECT a FROM t\n"
           "-- memory_mb: 1\n"
           "-- family: " + family + "\n"
           "RETURN in=1 out=1 width=8\n"
           "\n";
  };
  for (const char* bad :
       {"7x", "abc", "2.5", "99999999999", "2147483648", "-1", "+3", ""}) {
    const Status parsed = ParseQueryLog(log(bad)).status();
    EXPECT_TRUE(parsed.IsInvalidArgument()) << bad;
    EXPECT_EQ(parsed.message().rfind("line 8: family must be", 0), 0u)
        << bad << ": " << parsed.ToString();
    const Status loaded =
        LoadQueryLog(WriteBytes("wmp_family_log.txt", log(bad))).status();
    EXPECT_EQ(loaded.ToString(), parsed.ToString());
  }
  for (int good : {0, 7, 2147483647}) {
    auto parsed = ParseQueryLog(log(std::to_string(good)));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)[1].family_id, good);
  }
}

TEST(LogIoTest, GeneratorFreeTrainingRejectsRuleBased) {
  Dataset dataset = SmallDataset();
  core::LearnedWmpOptions opt;
  opt.templates.method = core::TemplateMethod::kRuleBased;
  opt.batch_size = 5;
  auto model = core::LearnedWmpModel::Train(
      dataset.records, core::AllIndices(dataset.records.size()), opt);
  EXPECT_TRUE(model.status().IsInvalidArgument());
}

}  // namespace
}  // namespace wmp::workloads
