#include "sql/ast.h"

#include <cctype>
#include <charconv>

#include "sql/lexer.h"

namespace wmp::sql {

namespace {

bool NeedsQuoting(std::string_view id) {
  if (id.empty()) return true;
  const unsigned char first = static_cast<unsigned char>(id[0]);
  if (!(std::islower(first) || id[0] == '_')) return true;
  for (char ch : id) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (!(std::islower(c) || std::isdigit(c) || ch == '_')) return true;
  }
  return IsReservedKeyword(id);
}

// Appends `text` between `quote`s, doubling every `quote` inside it.
void AppendQuoted(std::string_view text, char quote, std::string* out) {
  out->push_back(quote);
  for (char c : text) {
    if (c == quote) out->push_back(quote);
    out->push_back(c);
  }
  out->push_back(quote);
}

}  // namespace

void AppendIdentifier(std::string_view id, std::string* out) {
  if (NeedsQuoting(id)) {
    AppendQuoted(id, '"', out);
  } else {
    out->append(id);
  }
}

std::string QuoteIdentifier(std::string_view id) {
  std::string out;
  AppendIdentifier(id, &out);
  return out;
}

void ColumnRef::AppendTo(std::string* out) const {
  if (!table.empty()) {
    AppendIdentifier(table, out);
    out->push_back('.');
  }
  AppendIdentifier(column, out);
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kBetween:
      return "BETWEEN";
    case CompareOp::kIn:
      return "IN";
    case CompareOp::kLike:
      return "LIKE";
  }
  return "?";
}

void Literal::AppendTo(std::string* out) const {
  if (is_string) {
    AppendQuoted(text, '\'', out);  // '' escape, mirrors the lexer
    return;
  }
  char buf[32];  // "%g" needs at most 13 characters, an int64_t 20
  std::to_chars_result printed;
  // Integral literals print without a trailing ".000000". The range check
  // comes first: casting a double an int64_t cannot hold (1e30, NaN) is
  // undefined.
  if (number >= -0x1p63 && number < 0x1p63 &&
      number == static_cast<double>(static_cast<int64_t>(number))) {
    printed = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<int64_t>(number));
  } else {
    // chars_format::general at precision 6 is defined as printf's "%g".
    printed = std::to_chars(buf, buf + sizeof(buf), number,
                            std::chars_format::general, 6);
  }
  out->append(buf, static_cast<size_t>(printed.ptr - buf));
}

std::string Literal::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Predicate Predicate::Comparison(ColumnRef col, CompareOp op,
                                std::vector<Literal> values) {
  Predicate p;
  p.kind = Kind::kComparison;
  p.lhs = std::move(col);
  p.op = op;
  p.values = std::move(values);
  return p;
}

Predicate Predicate::Join(ColumnRef a, ColumnRef b) {
  Predicate p;
  p.kind = Kind::kJoin;
  p.lhs = std::move(a);
  p.op = CompareOp::kEq;
  p.rhs = std::move(b);
  return p;
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "";
}

bool Query::HasAggregation() const {
  for (const SelectItem& item : select_list) {
    if (item.agg != AggFunc::kNone) return true;
  }
  return false;
}

std::vector<const Predicate*> Query::JoinPredicates() const {
  std::vector<const Predicate*> out;
  for (const Predicate& p : where) {
    if (p.kind == Predicate::Kind::kJoin) out.push_back(&p);
  }
  return out;
}

std::vector<const Predicate*> Query::LocalPredicates(
    std::string_view table_or_alias) const {
  std::vector<const Predicate*> out;
  for (const Predicate& p : where) {
    if (p.kind == Predicate::Kind::kComparison &&
        p.lhs.table == table_or_alias) {
      out.push_back(&p);
    }
  }
  return out;
}

}  // namespace wmp::sql
