#include "workloads/log_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstring>
#include <fstream>
#include <system_error>

#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "sql/parser.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace wmp::workloads {

namespace {

// Appends one record in the query log format, the blank line included.
void AppendRecord(const QueryRecord& r, std::string* out) {
  out->append("-- query: ");
  out->append(r.sql_text);
  out->append("\n-- memory_mb: ");
  AppendDouble17g(r.actual_memory_mb, out);
  out->push_back('\n');
  if (r.dbms_estimate_mb > 0.0) {
    out->append("-- dbms_estimate_mb: ");
    AppendDouble17g(r.dbms_estimate_mb, out);
    out->push_back('\n');
  }
  if (r.family_id >= 0) {
    out->append("-- family: ");
    AppendInt(r.family_id, out);
    out->push_back('\n');
  }
  plan::AppendExplain(*r.plan, {}, out);
  out->push_back('\n');  // blank line terminates the record
}

}  // namespace

std::string SerializeQueryLog(const std::vector<QueryRecord>& records) {
  std::string out;
  for (const QueryRecord& r : records) AppendRecord(r, &out);
  return out;
}

Status WriteQueryLog(const std::vector<QueryRecord>& records,
                     const std::string& path) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].plan == nullptr) {
      return Status::InvalidArgument(
          StrFormat("record %zu has no plan", i));
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  // Records go out in chunks of about kChunk bytes, so the log text is
  // never held whole.
  constexpr size_t kChunk = size_t{1} << 20;
  std::string chunk;
  for (const QueryRecord& r : records) {
    AppendRecord(r, &chunk);
    if (chunk.size() >= kChunk) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  }
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

namespace {

// A memory figure must be a finite number and nothing else: one NaN label
// trains a model that predicts NaN for every workload.
Status ToFiniteDouble(std::string_view field, size_t line_no, double* out) {
  const Status st = ParseFiniteDouble(Trim(field), out);
  if (st.ok()) return st;
  return Status::InvalidArgument(
      StrFormat("line %zu: %s", line_no, st.message().c_str()));
}

// A family is a whole number in [0, INT_MAX]; the writer omits the line for
// a record without one (-1).
Status ToFamily(std::string_view field, size_t line_no, int* out) {
  const std::string_view text = Trim(field);
  const char* const end = text.data() + text.size();
  int v = -1;
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || stop != end || v < 0) {
    return Status::InvalidArgument(StrFormat(
        "line %zu: family must be a whole number in [0, %d], not '%.*s'",
        line_no, INT_MAX, static_cast<int>(text.size()), text.data()));
  }
  *out = v;
  return Status::OK();
}

// One record as the framing pass leaves it: header fields read, SQL and
// EXPLAIN still views of the log text.
struct FramedRecord {
  std::string_view sql;
  // First plan line through the last. When directive lines sit between
  // plan lines (`interleaved`), it holds those too.
  std::string_view explain;
  size_t query_line = 0;    // log line of the '-- query:' header
  size_t explain_line = 0;  // log line of the first plan line; 0 = none
  bool interleaved = false;
  double actual_memory_mb = 0.0;
  double dbms_estimate_mb = 0.0;
  int family_id = -1;
};

// The serial pass: walks the lines of `text`, numbered on from `*line_no`,
// reads each record's header fields and notes its SQL and EXPLAIN text,
// parsing neither. A blank line ends a record, and so does the end of
// `text`. Returns the first framing error; `*framed` then holds the records
// that ended before it.
Status FrameRecords(std::string_view text, size_t* line_no,
                    std::vector<FramedRecord>* framed) {
  FramedRecord r;
  bool in_record = false;
  size_t last_plan_line = 0;
  const auto complete = [&](size_t end_line) {
    if (!in_record) return Status::OK();
    if (r.sql.empty()) {
      return Status::InvalidArgument(
          StrFormat("record ending at line %zu has no '-- query:' header",
                    end_line));
    }
    if (r.explain_line == 0) {
      return Status::InvalidArgument(
          StrFormat("record ending at line %zu has no EXPLAIN block",
                    end_line));
    }
    framed->push_back(r);
    r = FramedRecord{};
    in_record = false;
    return Status::OK();
  };
  std::string_view raw;
  for (LineCursor lines(text); lines.Next(&raw);) {
    const size_t n = ++*line_no;
    if (Trim(raw).empty()) {
      WMP_RETURN_IF_ERROR(complete(n));
      continue;
    }
    in_record = true;
    if (StartsWith(raw, "-- query: ")) {
      if (!r.sql.empty()) {
        return Status::InvalidArgument(
            StrFormat("line %zu: duplicate '-- query:' in one record", n));
      }
      r.query_line = n;
      r.sql = raw.substr(10);
    } else if (StartsWith(raw, "-- memory_mb: ")) {
      WMP_RETURN_IF_ERROR(
          ToFiniteDouble(raw.substr(14), n, &r.actual_memory_mb));
    } else if (StartsWith(raw, "-- dbms_estimate_mb: ")) {
      WMP_RETURN_IF_ERROR(
          ToFiniteDouble(raw.substr(21), n, &r.dbms_estimate_mb));
    } else if (StartsWith(raw, "-- family: ")) {
      WMP_RETURN_IF_ERROR(ToFamily(raw.substr(11), n, &r.family_id));
    } else if (StartsWith(raw, "--")) {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown log directive", n));
    } else if (r.explain_line == 0) {  // plan line, possibly indented
      r.explain_line = n;
      r.explain = raw;
      last_plan_line = n;
    } else {
      r.interleaved = r.interleaved || n != last_plan_line + 1;
      r.explain = std::string_view(
          r.explain.data(),
          static_cast<size_t>(raw.data() + raw.size() - r.explain.data()));
      last_plan_line = n;
    }
  }
  return complete(*line_no);
}

// The plan lines of an interleaved block, each ended by '\n': the text a
// line-by-line parse fed the plan parser, so plan line numbers match.
std::string PlanLines(std::string_view block) {
  std::string out;
  std::string_view line;
  for (LineCursor lines(block); lines.Next(&line);) {
    if (StartsWith(line, "--")) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// The per-record work of the parallel pass: parses the framed SQL and
// EXPLAIN text into `*r` and fills everything derived from them.
Status FinishRecord(const FramedRecord& f, QueryRecord* r) {
  r->sql_text.assign(f.sql);
  auto query = sql::Parse(r->sql_text);
  if (!query.ok()) {
    // The SQL parser counts offsets within the query; name its log line.
    return Status(query.status().code(),
                  StrFormat("query at line %zu: %s", f.query_line,
                            query.status().message().c_str()));
  }
  r->query = std::move(*query);
  auto plan = f.interleaved ? plan::ParseExplain(PlanLines(f.explain))
                            : plan::ParseExplain(f.explain);
  if (!plan.ok()) {
    // The plan parser numbers lines within the block; name the log line
    // the block starts on too.
    return Status(plan.status().code(),
                  StrFormat("EXPLAIN block at line %zu: %s", f.explain_line,
                            plan.status().message().c_str()));
  }
  r->plan = std::move(*plan);
  r->plan_features = plan::ExtractPlanFeatures(*r->plan);
  r->actual_memory_mb = f.actual_memory_mb;
  r->dbms_estimate_mb = f.dbms_estimate_mb;
  r->family_id = f.family_id;
  // Memoize the serving-layer content hash while the row is hot.
  r->content_fingerprint = ContentFingerprint(*r);
  return Status::OK();
}

// Records per ParallelFor chunk: each costs tens of microseconds.
constexpr size_t kFinishGrain = 16;

// Frames `text` serially, then finishes its records on the pool, each into
// its own slot appended to `*out`. Returns the error a line-by-line parse
// returns: the earliest failure in line order, where a record's SQL or
// EXPLAIN failure counts at the line that ends the record, so it comes
// before any framing failure (which stops framing). On error `*out` is left
// as it was.
Status ParseRecords(std::string_view text, size_t* line_no,
                    std::vector<QueryRecord>* out) {
  std::vector<FramedRecord> framed;
  const Status framing = FrameRecords(text, line_no, &framed);
  const size_t base = out->size();
  out->resize(base + framed.size());
  std::vector<Status> failures(framed.size());
  util::ParallelFor(framed.size(), kFinishGrain, [&](size_t begin,
                                                     size_t end) {
    for (size_t i = begin; i < end; ++i) {
      failures[i] = FinishRecord(framed[i], &(*out)[base + i]);
      if (!failures[i].ok()) break;  // nothing later in the range is first
    }
  });
  const auto failed = std::find_if(failures.begin(), failures.end(),
                                   [](const Status& s) { return !s.ok(); });
  const Status status = failed != failures.end() ? *failed : framing;
  if (!status.ok()) out->resize(base);
  return status;
}

}  // namespace

Result<std::vector<QueryRecord>> ParseQueryLog(std::string_view text) {
  std::vector<QueryRecord> records;
  size_t line_no = 0;
  WMP_RETURN_IF_ERROR(ParseRecords(text, &line_no, &records));
  if (records.empty()) {
    return Status::InvalidArgument("query log contains no records");
  }
  return records;
}

Result<std::vector<QueryRecord>> LoadQueryLog(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  // One bulk read to EOF. A regular file's buffer is its size plus the byte
  // that lets the read seeing EOF fit without growing; anything else (a
  // FIFO, a pipe) starts at 64 KB and doubles. Nothing seeks.
  struct stat st;
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::string text(regular ? static_cast<size_t>(st.st_size) + 1 : 64 << 10,
                   '\0');
  size_t size = 0;
  ssize_t got = 0;
  do {
    if (size == text.size()) text.resize(2 * size);
    got = ::read(fd, text.data() + size, text.size() - size);
    if (got > 0) size += static_cast<size_t>(got);
  } while (got > 0 || (got < 0 && errno == EINTR));
  const int read_errno = got < 0 ? errno : 0;
  ::close(fd);
  if (read_errno != 0) {
    return Status::IOError(StrFormat("cannot read %s: %s", path.c_str(),
                                     std::strerror(read_errno)));
  }
  text.resize(size);
  return ParseQueryLog(text);
}

Result<QueryLogReader> QueryLogReader::Open(const std::string& path) {
  QueryLogReader reader;
  reader.in_.open(path);
  if (!reader.in_) return Status::IOError("cannot open for read: " + path);
  return reader;
}

Result<size_t> QueryLogReader::ReadChunk(size_t max_records,
                                         std::vector<QueryRecord>* out) {
  if (exhausted_ || max_records == 0) return static_cast<size_t>(0);
  // Read whole records: every line up to the blank line that ends the
  // max_records-th record, or to end of file. A chunk so always ends at a
  // record boundary, and nothing carries over to the next one.
  chunk_.clear();
  size_t lines = 0;
  size_t records = 0;
  bool in_record = false;
  while (records < max_records && std::getline(in_, line_)) {
    if (lines++ > 0) chunk_ += '\n';
    chunk_ += line_;
    if (!Trim(line_).empty()) {
      in_record = true;
    } else if (in_record) {
      ++records;
      in_record = false;
    }
  }
  if (records < max_records) exhausted_ = true;  // getline hit end of file
  if (lines == 0) return static_cast<size_t>(0);
  const size_t base = out->size();
  WMP_RETURN_IF_ERROR(ParseRecords(chunk_, &line_no_, out));
  const size_t appended = out->size() - base;
  records_read_ += appended;
  return appended;
}

}  // namespace wmp::workloads
