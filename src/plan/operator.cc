#include "plan/operator.h"

#include <string>

namespace wmp::plan {

const char* OperatorTypeName(OperatorType op) {
  switch (op) {
    case OperatorType::kTbScan:
      return "TBSCAN";
    case OperatorType::kIxScan:
      return "IXSCAN";
    case OperatorType::kFetch:
      return "FETCH";
    case OperatorType::kFilter:
      return "FILTER";
    case OperatorType::kNlJoin:
      return "NLJOIN";
    case OperatorType::kHsJoin:
      return "HSJOIN";
    case OperatorType::kMsJoin:
      return "MSJOIN";
    case OperatorType::kSort:
      return "SORT";
    case OperatorType::kGroupBy:
      return "GRPBY";
    case OperatorType::kTemp:
      return "TEMP";
    case OperatorType::kReturn:
      return "RETURN";
  }
  return "?";
}

Result<OperatorType> OperatorTypeFromName(std::string_view name) {
  for (int i = 0; i < kNumOperatorTypes; ++i) {
    const auto op = static_cast<OperatorType>(i);
    if (name == OperatorTypeName(op)) return op;
  }
  return Status::NotFound("unknown operator: " + std::string(name));
}

bool IsBlocking(OperatorType op) {
  return op == OperatorType::kSort || op == OperatorType::kTemp ||
         op == OperatorType::kGroupBy;
}

}  // namespace wmp::plan
