#ifndef WMP_SQL_AST_H_
#define WMP_SQL_AST_H_

/// \file ast.h
/// Abstract syntax tree for the SQL subset the library understands:
/// conjunctive SELECT-FROM-WHERE with joins, aggregation, grouping,
/// ordering, DISTINCT, and LIMIT — the shape of every TPC-DS / JOB / TPC-C
/// query the workload generators emit.
///
/// Identifier fields (table/column/alias names) are `std::string_view`s with
/// *static or interned* storage: the parser interns every identifier through
/// util::Intern, and generators either use string literals or intern their
/// formatted aliases. Interned views live for the whole process, so a Query
/// is freely copyable/movable and its nodes never own identifier memory.
/// When constructing ASTs by hand, never point these fields at a local
/// std::string — intern it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wmp::sql {

/// Comparison operator of a predicate.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBetween,
  kIn,
  kLike,
};

/// SQL spelling of an operator ("=", "<", "BETWEEN", ...).
const char* CompareOpName(CompareOp op);

/// Appends an identifier as SQL text: bare when it is a plain lower-case
/// word, double-quoted (with "" escaping) when it contains other characters,
/// starts with a digit, or collides with a reserved keyword — so
/// Parse(Print(q)) reproduces the identifier exactly.
void AppendIdentifier(std::string_view id, std::string* out);

/// AppendIdentifier into a fresh string.
std::string QuoteIdentifier(std::string_view id);

/// \brief Qualified column reference; `table` may be an alias or empty when
/// unambiguous.
struct ColumnRef {
  std::string_view table;   ///< alias or table name; empty when unambiguous
  std::string_view column;

  bool operator==(const ColumnRef& o) const {
    return table == o.table && column == o.column;
  }
  /// Appends the quoted SQL spelling (`table.column` with each part quoted
  /// as needed).
  void AppendTo(std::string* out) const;
};

/// \brief A literal operand: numeric or string.
struct Literal {
  double number = 0.0;
  std::string text;
  bool is_string = false;

  static Literal Number(double v) { return {v, {}, false}; }
  static Literal String(std::string s) { return {0.0, std::move(s), true}; }
  /// Appends the SQL spelling: a string quoted with '' escaping, an
  /// integral number an int64_t holds as an integer ("42"), any other
  /// number as printf's "%g" would ("2.5", "1e+30").
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

/// \brief One conjunct of the WHERE clause.
///
/// `kComparison` compares a column against literal(s); `kJoin` equates two
/// columns of different tables.
///
/// `true_selectivity` is a ground-truth hook: workload generators that know
/// the synthetic data distribution attach the predicate's true selectivity
/// here so the execution simulator does not have to re-derive it. Parsed
/// queries carry -1 (unknown) and the simulator falls back to
/// skew-aware statistics. The optimizer-side estimator NEVER reads it.
struct Predicate {
  enum class Kind : uint8_t { kComparison, kJoin };

  Kind kind = Kind::kComparison;
  ColumnRef lhs;
  CompareOp op = CompareOp::kEq;
  std::vector<Literal> values;  ///< 1 (compare), 2 (between), n (IN)
  ColumnRef rhs;                ///< join partner column (kJoin only)
  double true_selectivity = -1.0;

  static Predicate Comparison(ColumnRef col, CompareOp op,
                              std::vector<Literal> values);
  static Predicate Join(ColumnRef a, ColumnRef b);
};

/// Aggregate function in a select item.
enum class AggFunc : uint8_t { kNone, kCount, kSum, kAvg, kMin, kMax };

/// SQL name of an aggregate ("COUNT", ...); empty for kNone.
const char* AggFuncName(AggFunc f);

/// \brief One item of the SELECT list.
struct SelectItem {
  AggFunc agg = AggFunc::kNone;
  ColumnRef column;
  bool is_star = false;  ///< `*` or `COUNT(*)`

  static SelectItem Star() { return {AggFunc::kNone, {}, true}; }
  static SelectItem Col(ColumnRef c) { return {AggFunc::kNone, std::move(c), false}; }
  static SelectItem Agg(AggFunc f, ColumnRef c) { return {f, std::move(c), false}; }
  static SelectItem CountStar() { return {AggFunc::kCount, {}, true}; }
};

/// \brief FROM-list entry with optional alias.
struct TableRef {
  std::string_view table;
  std::string_view alias;  ///< empty = table name itself

  std::string_view effective_name() const {
    return alias.empty() ? table : alias;
  }
};

/// \brief A parsed (or generated) query.
struct Query {
  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::vector<TableRef> from;
  std::vector<Predicate> where;  ///< implicit conjunction
  std::vector<ColumnRef> group_by;
  std::vector<ColumnRef> order_by;
  int64_t limit = -1;  ///< -1 = no limit

  /// True if any select item aggregates.
  bool HasAggregation() const;
  /// Join predicates only.
  std::vector<const Predicate*> JoinPredicates() const;
  /// Local (non-join) predicates referencing `table_or_alias`.
  std::vector<const Predicate*> LocalPredicates(
      std::string_view table_or_alias) const;
};

}  // namespace wmp::sql

#endif  // WMP_SQL_AST_H_
