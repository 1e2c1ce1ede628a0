#ifndef WMP_PLAN_PLAN_PARSER_H_
#define WMP_PLAN_PLAN_PARSER_H_

/// \file plan_parser.h
/// Parses EXPLAIN text (see explain.h) back into a PlanNode tree.
///
/// This is the ingestion path for real deployments: a DBA dumps plans from
/// the DBMS query log, and the LearnedWMP training pipeline featurizes them
/// without re-planning. `ParseExplain(Explain(p))` reconstructs `p` exactly
/// (all annotated fields).

#include <string_view>

#include "plan/plan_node.h"
#include "util/status.h"

namespace wmp::plan {

/// \brief Parses one EXPLAIN plan. Fails with InvalidArgument on malformed
/// lines, bad indentation (a child more than one level deeper than its
/// parent), unknown operators, or empty input. The returned tree owns its
/// arena.
Result<PlanTree> ParseExplain(std::string_view text);

/// Batch form: parses into a caller-owned arena (nodes and strings live
/// there; reset the arena between batches to reuse its chunks). Lines are
/// read in place as views of `text`; nothing is copied but the table and
/// detail strings the nodes keep.
Result<PlanNode*> ParseExplainInto(std::string_view text,
                                   util::Arena* arena);

}  // namespace wmp::plan

#endif  // WMP_PLAN_PLAN_PARSER_H_
