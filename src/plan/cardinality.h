#ifndef WMP_PLAN_CARDINALITY_H_
#define WMP_PLAN_CARDINALITY_H_

/// \file cardinality.h
/// Two cardinality models with one interface:
///
///  * `OptimizerCardinalityModel` — the System-R-style estimator every
///    textbook DBMS ships: uniform value frequencies, independent
///    predicates, containment join estimation. This is what the *planner*
///    and the DBMS heuristic memory estimator believe.
///  * `TrueCardinalityModel` — the ground-truth oracle. It honors the
///    synthetic data model (Zipf value skew, declared column correlations,
///    foreign-key fanout skew) and the generator-attached
///    `Predicate::true_selectivity` hints. It stands in for actually
///    executing the query.
///
/// The *gap* between these two models is the error source the paper
/// attributes to the state of practice (§I: "uniformity and independence
/// of the underlying data").

#include <vector>

#include "catalog/catalog.h"
#include "sql/ast.h"
#include "util/status.h"

namespace wmp::plan {

/// \brief Closed-form approximation of the generalized harmonic number
/// `H_n(theta) = sum_{k=1..n} k^-theta` (integral method; exact enough for
/// selectivity math).
///
/// The first min(n, 2048) terms are summed exactly and the rest is an
/// integral tail. The cold planning path calls this once per range
/// predicate with `n` derived from the predicate's literal, so the exact
/// part comes from one cumulative prefix-sum table per distinct theta (a
/// catalog has a handful): every call is a table lookup plus the tail,
/// bitwise equal to the direct left-to-right summation.
double HarmonicApprox(double n, double theta);

/// CDF of Zipf(n, theta) at rank `k` (ranks ordered by frequency).
double ZipfCdfApprox(double k, double n, double theta);

/// Collision probability `sum_k pmf(k)^2` of Zipf(n, theta): the expected
/// selectivity of an equality predicate whose constant is drawn
/// data-distributedly.
double ZipfCollisionProb(double n, double theta);

/// \brief Shared interface so the planner and the simulator walk plans with
/// interchangeable models.
class CardinalityModel {
 public:
  explicit CardinalityModel(const catalog::Catalog* cat) : catalog_(cat) {}
  virtual ~CardinalityModel() = default;

  /// Selectivity in [0,1] of one comparison predicate against its table.
  virtual Result<double> PredicateSelectivity(
      const sql::Predicate& pred, const catalog::TableDef& table) const = 0;

  /// Combined selectivity of a conjunction of local predicates.
  virtual Result<double> ConjunctionSelectivity(
      const std::vector<const sql::Predicate*>& preds,
      const catalog::TableDef& table) const;

  /// Selectivity of an equi-join between `left.col` and `right.col`.
  virtual Result<double> JoinSelectivity(const sql::Predicate& join_pred,
                                         const catalog::TableDef& left,
                                         const catalog::TableDef& right) const = 0;

  /// Number of output groups of a GROUP BY over `columns` on `input_card`
  /// incoming rows.
  virtual Result<double> GroupCount(
      const std::vector<std::pair<const catalog::TableDef*, std::string_view>>& columns,
      double input_card) const = 0;

 protected:
  const catalog::Catalog* catalog_;
};

/// \brief Uniformity + independence estimator (the optimizer's view).
class OptimizerCardinalityModel : public CardinalityModel {
 public:
  using CardinalityModel::CardinalityModel;

  Result<double> PredicateSelectivity(
      const sql::Predicate& pred, const catalog::TableDef& table) const override;
  Result<double> JoinSelectivity(const sql::Predicate& join_pred,
                                 const catalog::TableDef& left,
                                 const catalog::TableDef& right) const override;
  Result<double> GroupCount(
      const std::vector<std::pair<const catalog::TableDef*, std::string_view>>& columns,
      double input_card) const override;

  /// Default selectivity for LIKE predicates (classic System-R magic).
  static constexpr double kLikeSelectivity = 0.1;
};

/// \brief Ground-truth oracle honoring skew, correlation, and fanout.
class TrueCardinalityModel : public CardinalityModel {
 public:
  using CardinalityModel::CardinalityModel;

  Result<double> PredicateSelectivity(
      const sql::Predicate& pred, const catalog::TableDef& table) const override;
  /// Applies exponential-backoff correlation between predicate pairs that
  /// the table declares correlated: `s_combined = s1 * s2^(1 - strength)`.
  Result<double> ConjunctionSelectivity(
      const std::vector<const sql::Predicate*>& preds,
      const catalog::TableDef& table) const override;
  Result<double> JoinSelectivity(const sql::Predicate& join_pred,
                                 const catalog::TableDef& left,
                                 const catalog::TableDef& right) const override;
  Result<double> GroupCount(
      const std::vector<std::pair<const catalog::TableDef*, std::string_view>>& columns,
      double input_card) const override;
};

}  // namespace wmp::plan

#endif  // WMP_PLAN_CARDINALITY_H_
