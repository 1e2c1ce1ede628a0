#include "workloads/log_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "sql/parser.h"
#include "util/strings.h"

namespace wmp::workloads {

std::string SerializeQueryLog(const std::vector<QueryRecord>& records) {
  std::string out;
  for (const QueryRecord& r : records) {
    out += "-- query: " + r.sql_text + "\n";
    out += StrFormat("-- memory_mb: %.17g\n", r.actual_memory_mb);
    if (r.dbms_estimate_mb > 0.0) {
      out += StrFormat("-- dbms_estimate_mb: %.17g\n", r.dbms_estimate_mb);
    }
    if (r.family_id >= 0) {
      out += StrFormat("-- family: %d\n", r.family_id);
    }
    out += plan::Explain(*r.plan);
    out += "\n";  // blank line terminates the record
  }
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
  out << SerializeQueryLog(records);
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

namespace {

// strtod and atoi read up to a NUL, and a line view has none: they would
// read on into the next line (strtod skips a leading newline). So a field is
// copied out before it is converted.
//
// A memory figure must be a finite number and nothing else: one NaN label
// trains a model that predicts NaN for every workload.
Status ToFiniteDouble(std::string_view field, size_t line_no, double* out) {
  const std::string text(Trim(field));
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    return Status::InvalidArgument(
        StrFormat("line %zu: non-numeric value '%s'", line_no, text.c_str()));
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument(
        StrFormat("line %zu: non-finite value '%s'", line_no, text.c_str()));
  }
  *out = v;
  return Status::OK();
}
int ToInt(std::string_view field) {
  return std::atoi(std::string(field).c_str());
}

/// Incremental single-record parser shared by the whole-text ParseQueryLog
/// and the streaming QueryLogReader — the format's record boundary is a
/// blank line, so one line of lookahead is never needed and a record can
/// be finalized (SQL re-parsed, EXPLAIN block re-planned, features
/// recomputed) the moment its terminator arrives.
struct RecordAssembler {
  QueryRecord current;
  std::string explain_block;
  size_t query_line = 0;    // log line of the '-- query:' header
  size_t explain_line = 0;  // log line of the block's first line
  bool in_record = false;

  /// Finalizes the pending record (if any) into `*done`; `*completed`
  /// says whether one was produced.
  Status Complete(size_t line_no, QueryRecord* done, bool* completed) {
    *completed = false;
    if (!in_record) return Status::OK();
    if (current.sql_text.empty()) {
      return Status::InvalidArgument(
          StrFormat("record ending at line %zu has no '-- query:' header",
                    line_no));
    }
    if (explain_block.empty()) {
      return Status::InvalidArgument(
          StrFormat("record ending at line %zu has no EXPLAIN block",
                    line_no));
    }
    auto query = sql::Parse(current.sql_text);
    if (!query.ok()) {
      // The SQL parser counts offsets within the query; name its log line.
      return Status(query.status().code(),
                    StrFormat("query at line %zu: %s", query_line,
                              query.status().message().c_str()));
    }
    current.query = std::move(*query);
    auto plan = plan::ParseExplain(explain_block);
    if (!plan.ok()) {
      // The plan parser numbers lines within the block; name the log line
      // the block starts on too.
      return Status(plan.status().code(),
                    StrFormat("EXPLAIN block at line %zu: %s", explain_line,
                              plan.status().message().c_str()));
    }
    current.plan = std::move(*plan);
    current.plan_features = plan::ExtractPlanFeatures(*current.plan);
    *done = std::move(current);
    *completed = true;
    current = QueryRecord{};
    explain_block.clear();
    in_record = false;
    return Status::OK();
  }

  /// Consumes one line; a blank line completes the pending record.
  Status Feed(std::string_view raw, size_t line_no, QueryRecord* done,
              bool* completed) {
    *completed = false;
    if (Trim(raw).empty()) return Complete(line_no, done, completed);
    if (StartsWith(raw, "-- query: ")) {
      if (in_record && !current.sql_text.empty()) {
        return Status::InvalidArgument(
            StrFormat("line %zu: duplicate '-- query:' in one record",
                      line_no));
      }
      in_record = true;
      query_line = line_no;
      current.sql_text = raw.substr(10);
      return Status::OK();
    }
    if (StartsWith(raw, "-- memory_mb: ")) {
      in_record = true;
      return ToFiniteDouble(raw.substr(14), line_no,
                            &current.actual_memory_mb);
    }
    if (StartsWith(raw, "-- dbms_estimate_mb: ")) {
      in_record = true;
      return ToFiniteDouble(raw.substr(21), line_no,
                            &current.dbms_estimate_mb);
    }
    if (StartsWith(raw, "-- family: ")) {
      current.family_id = ToInt(raw.substr(11));
      in_record = true;
      return Status::OK();
    }
    if (StartsWith(raw, "--")) {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown log directive", line_no));
    }
    // Plan line (possibly indented).
    in_record = true;
    if (explain_block.empty()) explain_line = line_no;
    explain_block += raw;
    explain_block += '\n';
    return Status::OK();
  }
};

}  // namespace

Result<std::vector<QueryRecord>> ParseQueryLog(std::string_view text) {
  std::vector<QueryRecord> records;
  RecordAssembler assembler;
  size_t line_no = 0;
  QueryRecord done;
  bool completed = false;
  // Lines are views into `text`: one before each '\n', then the rest after
  // the last one (empty when `text` ends in '\n'), numbered from 1.
  for (size_t start = 0;;) {
    const size_t end = std::min(text.find('\n', start), text.size());
    ++line_no;
    WMP_RETURN_IF_ERROR(assembler.Feed(text.substr(start, end - start),
                                       line_no, &done, &completed));
    if (completed) records.push_back(std::move(done));
    if (end == text.size()) break;
    start = end + 1;
  }
  WMP_RETURN_IF_ERROR(assembler.Complete(line_no, &done, &completed));
  if (completed) records.push_back(std::move(done));
  if (records.empty()) {
    return Status::InvalidArgument("query log contains no records");
  }
  // Memoize the serving-layer content hash while the rows are hot.
  FingerprintRecords(&records);
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
  // ReadChunk always leaves the stream at a record boundary (it returns
  // only after a record completes or at end of log), so the assembler
  // carries no state between chunks.
  RecordAssembler assembler;
  const size_t base = out->size();
  size_t appended = 0;
  QueryRecord done;
  bool completed = false;
  std::string raw;
  while (appended < max_records && std::getline(in_, raw)) {
    ++line_no_;
    WMP_RETURN_IF_ERROR(assembler.Feed(raw, line_no_, &done, &completed));
    if (completed) {
      out->push_back(std::move(done));
      ++appended;
    }
  }
  if (appended < max_records) {
    // getline hit end of file; flush a final unterminated record.
    WMP_RETURN_IF_ERROR(assembler.Complete(line_no_, &done, &completed));
    if (completed) {
      out->push_back(std::move(done));
      ++appended;
    }
    exhausted_ = true;
  }
  records_read_ += appended;
  // Fingerprint just the fresh rows (FingerprintRecords over the whole
  // vector would be correct — it skips memoized rows — but would rescan
  // the caller's carry-over on every chunk).
  for (size_t i = base; i < out->size(); ++i) {
    QueryRecord& r = (*out)[i];
    if (r.content_fingerprint == 0) {
      r.content_fingerprint = ContentFingerprint(r);
    }
  }
  return appended;
}

}  // namespace wmp::workloads
