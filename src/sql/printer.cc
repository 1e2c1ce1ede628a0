#include "sql/printer.h"

#include <charconv>
#include <functional>

namespace wmp::sql {

namespace {

// Appends `items` separated by `sep`, each through `append(item, out)`
// (a function or an `AppendTo` member).
template <typename T, typename AppendFn>
void AppendList(const std::vector<T>& items, std::string_view sep,
                std::string* out, AppendFn append) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->append(sep);
    std::invoke(append, items[i], out);
  }
}

void AppendSelectItem(const SelectItem& item, std::string* out) {
  const bool agg = item.agg != AggFunc::kNone;
  if (agg) {
    out->append(AggFuncName(item.agg));
    out->push_back('(');
  }
  if (item.is_star) {
    out->push_back('*');
  } else {
    item.column.AppendTo(out);
  }
  if (agg) out->push_back(')');
}

void AppendTable(const TableRef& t, std::string* out) {
  AppendIdentifier(t.table, out);
  if (!t.alias.empty()) {
    out->push_back(' ');
    AppendIdentifier(t.alias, out);
  }
}

void AppendPredicate(const Predicate& p, std::string* out) {
  p.lhs.AppendTo(out);
  if (p.kind == Predicate::Kind::kJoin) {
    out->append(" = ");
    p.rhs.AppendTo(out);
    return;
  }
  out->push_back(' ');
  out->append(CompareOpName(p.op));
  out->push_back(' ');
  switch (p.op) {
    case CompareOp::kBetween:
      p.values[0].AppendTo(out);
      out->append(" AND ");
      p.values[1].AppendTo(out);
      break;
    case CompareOp::kIn:
      out->push_back('(');
      AppendList(p.values, ", ", out, &Literal::AppendTo);
      out->push_back(')');
      break;
    default:
      p.values[0].AppendTo(out);
  }
}

}  // namespace

std::string Print(const Query& query) {
  std::string out = "SELECT ";
  if (query.distinct) out += "DISTINCT ";
  AppendList(query.select_list, ", ", &out, AppendSelectItem);
  out += " FROM ";
  AppendList(query.from, ", ", &out, AppendTable);
  if (!query.where.empty()) {
    out += " WHERE ";
    AppendList(query.where, " AND ", &out, AppendPredicate);
  }
  if (!query.group_by.empty()) {
    out += " GROUP BY ";
    AppendList(query.group_by, ", ", &out, &ColumnRef::AppendTo);
  }
  if (!query.order_by.empty()) {
    out += " ORDER BY ";
    AppendList(query.order_by, ", ", &out, &ColumnRef::AppendTo);
  }
  if (query.limit >= 0) {
    char buf[24];
    const auto printed = std::to_chars(buf, buf + sizeof(buf), query.limit);
    out += " LIMIT ";
    out.append(buf, static_cast<size_t>(printed.ptr - buf));
  }
  return out;
}

}  // namespace wmp::sql
