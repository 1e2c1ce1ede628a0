#ifndef WMP_WORKLOADS_QUERY_RECORD_H_
#define WMP_WORKLOADS_QUERY_RECORD_H_

/// \file query_record.h
/// One fully-processed historical query: the unit of the training corpus
/// `Q_train` (paper step TR1). A record carries everything every
/// downstream component needs — SQL text for the text-based template
/// learners, the plan + features for the plan-based learner and SingleWMP,
/// the simulated actual memory as the label, and the DBMS heuristic
/// estimate as the state-of-practice baseline.

#include <memory>
#include <string>
#include <vector>

#include "plan/plan_node.h"
#include "sql/ast.h"

namespace wmp::workloads {

/// \brief A processed query from the (simulated) query log.
struct QueryRecord {
  std::string sql_text;
  sql::Query query;
  /// Owning tree handle: the plan's nodes live in the tree's arena.
  plan::PlanTree plan;
  /// TR2 features: per-operator (count, total estimated cardinality).
  std::vector<double> plan_features;
  /// Ground-truth peak working memory (MB) from the execution simulator.
  double actual_memory_mb = 0.0;
  /// The optimizer's heuristic memory estimate (MB): SingleWMP-DBMS.
  double dbms_estimate_mb = 0.0;
  /// Generator family the query was instantiated from (for rule-based
  /// templates and diagnostics; the learned pipeline never reads it).
  int family_id = -1;
  /// Memoized ContentFingerprint() (0 = not yet computed). The dataset
  /// builder and log loader fill it once so the serving layer's cache
  /// keys — core::WorkloadFingerprint (the histogram-cache key) and the
  /// per-query key of engine::TemplateIdCache — combine precomputed words
  /// instead of re-hashing query text per submission. With the per-query
  /// template cache this matters per member query per flush, not just
  /// per workload.
  uint64_t content_fingerprint = 0;

  QueryRecord() = default;
  QueryRecord(QueryRecord&&) = default;
  QueryRecord& operator=(QueryRecord&&) = default;
  QueryRecord(const QueryRecord&) = delete;
  QueryRecord& operator=(const QueryRecord&) = delete;
};

/// One-line diagnostic summary ("family=12 mem=38.2MB est=12.1MB ops=9").
std::string SummarizeRecord(const QueryRecord& record);

/// Canonical 64-bit hash of the record's template-relevant content: SQL
/// text, plan features (by bit pattern), and generator family — everything
/// any template method reads. Ignores the memoized field; stable within a
/// process, which is all a cache key needs.
uint64_t ContentFingerprint(const QueryRecord& record);

}  // namespace wmp::workloads

#endif  // WMP_WORKLOADS_QUERY_RECORD_H_
