#ifndef WMP_PLAN_EXPLAIN_H_
#define WMP_PLAN_EXPLAIN_H_

/// \file explain.h
/// Db2-flavoured EXPLAIN text for plan trees. The format is stable and
/// machine-parseable (see plan_parser.h), so query logs can persist plans
/// as text and the training pipeline can re-ingest them — the same
/// workflow the paper's TR1 step performs against a real DBMS query log.
///
/// Grammar (one node per line, two-space indent per depth level):
///
///   OPNAME[(table)] in=<f> out=<f> [tin=<f> tout=<f>] width=<f>
///          [keys=<n>] [hash] [detail="..."]

#include <string>

#include "plan/plan_node.h"

namespace wmp::plan {

/// Rendering options.
struct ExplainOptions {
  bool include_true_cardinalities = true;  ///< emit tin=/tout= fields
};

/// \brief Renders `root` as indented EXPLAIN text.
std::string Explain(const PlanNode& root, const ExplainOptions& options = {});

/// Explain, appended to `out`.
void AppendExplain(const PlanNode& root, const ExplainOptions& options,
                   std::string* out);

}  // namespace wmp::plan

#endif  // WMP_PLAN_EXPLAIN_H_
