#ifndef WMP_WORKLOADS_LOG_IO_H_
#define WMP_WORKLOADS_LOG_IO_H_

/// \file log_io.h
/// Text serialization of query logs — the deployment-grade TR1 ingestion
/// path. A production site dumps its query log as SQL + EXPLAIN + observed
/// peak memory; LearnedWMP trains from that dump without access to the
/// DBMS. The format is line-oriented and append-friendly:
///
///   -- query: SELECT ...
///   -- memory_mb: 38.25
///   -- dbms_estimate_mb: 12.5        (optional)
///   -- family: 7                     (optional)
///   RETURN in=... out=... width=...
///     SORT ...
///   <blank line terminates the record>

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "workloads/query_record.h"

namespace wmp::workloads {

/// \brief Writes `records` (SQL text, plan, labels) to `path` in the query
/// log format. Fails if a record lacks a plan.
Status WriteQueryLog(const std::vector<QueryRecord>& records,
                     const std::string& path);

/// \brief Parses a query log produced by WriteQueryLog (or by an external
/// dump tool emitting the same format).
///
/// Each record's SQL is re-parsed into an AST and its EXPLAIN block into a
/// plan tree; plan features are recomputed from the parsed plan. Records
/// missing the optional fields get `dbms_estimate_mb = 0` and
/// `family_id = -1`. Malformed records fail the whole load with a
/// line-annotated error. The file is read once, in bulk, without seeking
/// (a FIFO loads too), and parsed in place as ParseQueryLog parses text;
/// an unopenable or unreadable file fails with IOError.
Result<std::vector<QueryRecord>> LoadQueryLog(const std::string& path);

/// In-memory variants (for tests and piping).
std::string SerializeQueryLog(const std::vector<QueryRecord>& records);
Result<std::vector<QueryRecord>> ParseQueryLog(std::string_view text);

/// \brief Streaming reader of the query-log format.
///
/// `LoadQueryLog` slurps the whole file — fine for experiments, but a
/// production site's log is arbitrarily large while scoring only ever
/// needs one workload's worth of records at a time. The reader parses
/// records incrementally (the format is line-oriented and
/// blank-line-delimited, so record boundaries need no lookahead) and
/// hands them out in caller-sized chunks; `wmpctl score` streams a log
/// through the scorer this way with a resident set capped at one chunk.
///
/// Chunks are fingerprinted on the way out (same as LoadQueryLog), so
/// serving-layer cache keys are identical whether a record arrived via a
/// chunk or a whole-file load.
class QueryLogReader {
 public:
  /// Opens `path`; fails with IOError when unreadable.
  static Result<QueryLogReader> Open(const std::string& path);

  /// Parses up to `max_records` further records into `*out` (appended;
  /// existing elements untouched). Returns the number appended — 0 means
  /// clean end of log. Malformed records fail with a line-annotated error,
  /// like ParseQueryLog.
  Result<size_t> ReadChunk(size_t max_records, std::vector<QueryRecord>* out);

  /// True once the last record has been returned.
  bool exhausted() const { return exhausted_; }
  /// Records handed out so far.
  size_t records_read() const { return records_read_; }

 private:
  QueryLogReader() = default;

  std::ifstream in_;
  size_t line_no_ = 0;
  size_t records_read_ = 0;
  bool exhausted_ = false;
};

}  // namespace wmp::workloads

#endif  // WMP_WORKLOADS_LOG_IO_H_
