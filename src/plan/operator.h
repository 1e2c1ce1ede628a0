#ifndef WMP_PLAN_OPERATOR_H_
#define WMP_PLAN_OPERATOR_H_

/// \file operator.h
/// Physical operator vocabulary. Names follow Db2 EXPLAIN conventions
/// (TBSCAN, IXSCAN, HSJOIN, ...), the dialect the paper's Fig. 2 shows.
/// The operator set is closed and ordered: plan featurization (TR2) emits a
/// fixed-length vector with one (count, cardinality) slot pair per type.

#include <cstdint>
#include <string_view>

#include "util/status.h"

namespace wmp::plan {

/// Physical operator type.
enum class OperatorType : uint8_t {
  kTbScan = 0,   ///< sequential table scan (applies sargable predicates)
  kIxScan = 1,   ///< index range/point scan
  kFetch = 2,    ///< row fetch by RID after an index scan
  kFilter = 3,   ///< residual (non-sargable) predicate, e.g. LIKE
  kNlJoin = 4,   ///< nested-loop join
  kHsJoin = 5,   ///< hash join (build on the smaller input)
  kMsJoin = 6,   ///< sort-merge join
  kSort = 7,     ///< blocking sort (order-by, merge-join input, sort-group)
  kGroupBy = 8,  ///< aggregation; hash or stream mode
  kTemp = 9,     ///< temporary materialization
  kReturn = 10,  ///< plan root returning rows to the client
};

/// Number of distinct operator types (feature-vector sizing).
constexpr int kNumOperatorTypes = 11;

/// Db2-style upper-case name ("TBSCAN", "HSJOIN", ...).
const char* OperatorTypeName(OperatorType op);

/// Inverse of OperatorTypeName; NotFound for unknown names.
Result<OperatorType> OperatorTypeFromName(std::string_view name);

/// True for operators that break a pipeline (consume their input fully
/// before producing output): SORT, TEMP, and hash GROUP BY; HSJOIN blocks
/// on its build side only and is handled specially by the memory model.
bool IsBlocking(OperatorType op);

}  // namespace wmp::plan

#endif  // WMP_PLAN_OPERATOR_H_
