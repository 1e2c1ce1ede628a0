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

/// \brief Loads a query log produced by WriteQueryLog (or by an external
/// dump tool emitting the same format).
///
/// The file is read once, in bulk, without seeking (a FIFO loads too), and
/// parsed in place as ParseQueryLog parses text; an unopenable or
/// unreadable file fails with IOError.
Result<std::vector<QueryRecord>> LoadQueryLog(const std::string& path);

/// In-memory form of WriteQueryLog (for tests and piping).
std::string SerializeQueryLog(const std::vector<QueryRecord>& records);

/// \brief Parses query-log text in two passes.
///
/// - Framing, serial: walks the lines, reads each record's header fields
///   and notes its SQL and EXPLAIN text as views of `text` with their line
///   numbers. It parses and copies neither.
/// - Finishing, on the util::ParallelFor pool (`--threads`): copies each
///   record's SQL line into it, parses the SQL into an AST and the EXPLAIN
///   block in place into a plan tree, recomputes the plan features and
///   content fingerprint, and writes the record into its own slot. Records
///   are the same bit for bit at every thread count.
///
/// Records missing the optional fields get `dbms_estimate_mb = 0` and
/// `family_id = -1`. A malformed record fails the whole load with the error
/// a line-by-line parse meets first: a bad header or directive fails at its
/// line, and a record whose SQL or EXPLAIN does not parse fails at the
/// blank line that ends it, so an earlier record's failure always wins.
///
/// EXPLAIN text is read where it lies and never copied, except for a block
/// with a directive line between two of its plan lines: that one record's
/// plan lines are gathered into a string while it is parsed.
Result<std::vector<QueryRecord>> ParseQueryLog(std::string_view text);

/// \brief Streaming reader of the query-log format.
///
/// `LoadQueryLog` slurps the whole file — fine for experiments, but a
/// production site's log is arbitrarily large while scoring only ever
/// needs one workload's worth of records at a time. The reader hands out
/// records in caller-sized chunks; `wmpctl score` streams a log through the
/// scorer this way with a resident set capped at about one chunk.
///
/// Each chunk's lines are read into one buffer up to the blank line that
/// ends its last record (the format needs no lookahead), then framed and
/// finished exactly as ParseQueryLog does, the finishing pass on the pool.
/// Chunks come out fingerprinted, so serving-layer cache keys are
/// identical whether a record arrived in a chunk or a whole-file load.
class QueryLogReader {
 public:
  /// Opens `path`; fails with IOError when unreadable.
  static Result<QueryLogReader> Open(const std::string& path);

  /// Parses up to `max_records` further records into `*out` (appended;
  /// existing elements untouched). Returns the number appended — 0 means
  /// clean end of log. Malformed records fail with the line-annotated
  /// error ParseQueryLog returns, and `*out` is then left as it was.
  Result<size_t> ReadChunk(size_t max_records, std::vector<QueryRecord>* out);

  /// True once the last record has been returned.
  bool exhausted() const { return exhausted_; }
  /// Records handed out so far.
  size_t records_read() const { return records_read_; }

 private:
  QueryLogReader() = default;

  std::ifstream in_;
  std::string line_;   // getline's buffer
  std::string chunk_;  // the current chunk's lines, '\n'-joined
  size_t line_no_ = 0;
  size_t records_read_ = 0;
  bool exhausted_ = false;
};

}  // namespace wmp::workloads

#endif  // WMP_WORKLOADS_LOG_IO_H_
