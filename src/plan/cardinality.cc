#include "plan/cardinality.h"

#include <algorithm>
#include <cmath>

namespace wmp::plan {

namespace {

// Exact-summation limit: beyond it the midpoint-corrected integral tail
// takes over. Selectivity math needs ~3 significant digits.
constexpr double kExactLimit = 2048.0;

// Integral tail of H_n(theta) past the exact prefix (n > kExactLimit).
double HarmonicTail(double n, double theta) {
  if (std::fabs(theta - 1.0) < 1e-9) {
    return std::log((n + 0.5) / (kExactLimit + 0.5));
  }
  return (std::pow(n + 0.5, 1.0 - theta) -
          std::pow(kExactLimit + 0.5, 1.0 - theta)) /
         (1.0 - theta);
}

// Cumulative prefix sums of the exact summation for one theta, accumulated
// left to right, so prefix[m] is bitwise sum_{k=1..m} k^-theta.
const std::vector<double>& ThetaPrefixTable(double theta) {
  // A catalog carries a handful of distinct skews (plus their doubles from
  // ZipfCollisionProb); wholesale drop on adversarial streams, as with any
  // bounded memo. Thread-local: no sharing, no locks.
  constexpr size_t kMaxTables = 64;
  struct ThetaTable {
    double theta;
    std::vector<double> prefix;
  };
  thread_local std::vector<ThetaTable> tables;
  for (const ThetaTable& t : tables) {
    if (t.theta == theta) return t.prefix;
  }
  if (tables.size() >= kMaxTables) tables.clear();
  ThetaTable t;
  t.theta = theta;
  t.prefix.resize(static_cast<size_t>(kExactLimit) + 1);
  t.prefix[0] = 0.0;
  double sum = 0.0;
  for (size_t k = 1; k < t.prefix.size(); ++k) {
    sum += std::pow(static_cast<double>(k), -theta);
    t.prefix[k] = sum;
  }
  tables.push_back(std::move(t));
  return tables.back().prefix;
}

}  // namespace

double HarmonicApprox(double n, double theta) {
  if (n < 1.0) return 0.0;
  if (theta == 0.0) return n;
  // The exact part sums k^-theta over the integers k <= min(n, limit), so
  // it is the prefix entry at floor(min(n, limit)).
  const std::vector<double>& prefix = ThetaPrefixTable(theta);
  const double sum = prefix[static_cast<size_t>(std::min(n, kExactLimit))];
  if (n <= kExactLimit) return sum;
  return sum + HarmonicTail(n, theta);
}

double ZipfCdfApprox(double k, double n, double theta) {
  if (k <= 0.0) return 0.0;
  if (k >= n) return 1.0;
  return HarmonicApprox(k, theta) / HarmonicApprox(n, theta);
}

double ZipfCollisionProb(double n, double theta) {
  if (n < 1.0) return 1.0;
  const double h = HarmonicApprox(n, theta);
  return HarmonicApprox(n, 2.0 * theta) / (h * h);
}

namespace {

// Clamps a selectivity into [1e-9, 1].
double ClampSel(double s) { return std::clamp(s, 1e-9, 1.0); }

// Fraction of the [min,max] domain a range predicate covers, assuming
// uniform spread of values over the domain (both models use this geometric
// fraction; they differ in how they map it to a *row* fraction).
double DomainFraction(const sql::Predicate& pred,
                      const catalog::ColumnStats& stats) {
  const double lo = stats.min_value, hi = stats.max_value;
  const double span = std::max(hi - lo, 1e-12);
  auto frac_below = [&](double v) {
    return std::clamp((v - lo) / span, 0.0, 1.0);
  };
  switch (pred.op) {
    case sql::CompareOp::kLt:
    case sql::CompareOp::kLe:
      return frac_below(pred.values[0].number);
    case sql::CompareOp::kGt:
    case sql::CompareOp::kGe:
      return 1.0 - frac_below(pred.values[0].number);
    case sql::CompareOp::kBetween: {
      const double a = frac_below(pred.values[0].number);
      const double b = frac_below(pred.values[1].number);
      return std::max(b - a, 0.0);
    }
    default:
      return 1.0;
  }
}

}  // namespace

Result<double> CardinalityModel::ConjunctionSelectivity(
    const std::vector<const sql::Predicate*>& preds,
    const catalog::TableDef& table) const {
  double sel = 1.0;
  for (const sql::Predicate* p : preds) {
    WMP_ASSIGN_OR_RETURN(double s, PredicateSelectivity(*p, table));
    sel *= s;
  }
  return ClampSel(sel);
}

// ---------------------------------------------------------------------------
// Optimizer model: uniformity + independence.
// ---------------------------------------------------------------------------

Result<double> OptimizerCardinalityModel::PredicateSelectivity(
    const sql::Predicate& pred, const catalog::TableDef& table) const {
  if (pred.kind != sql::Predicate::Kind::kComparison) {
    return Status::InvalidArgument("join predicate passed as comparison");
  }
  WMP_ASSIGN_OR_RETURN(const catalog::Column* col,
                       table.FindColumn(pred.lhs.column));
  const catalog::ColumnStats& stats = col->stats();
  const double ndv = std::max<double>(static_cast<double>(stats.ndv), 1.0);
  switch (pred.op) {
    case sql::CompareOp::kEq:
      return ClampSel(1.0 / ndv);
    case sql::CompareOp::kNe:
      return ClampSel(1.0 - 1.0 / ndv);
    case sql::CompareOp::kIn:
      return ClampSel(static_cast<double>(pred.values.size()) / ndv);
    case sql::CompareOp::kLike:
      return kLikeSelectivity;
    case sql::CompareOp::kLt:
    case sql::CompareOp::kLe:
    case sql::CompareOp::kGt:
    case sql::CompareOp::kGe:
    case sql::CompareOp::kBetween:
      return ClampSel(DomainFraction(pred, stats));
  }
  return Status::Internal("unhandled comparison op");
}

Result<double> OptimizerCardinalityModel::JoinSelectivity(
    const sql::Predicate& join_pred, const catalog::TableDef& left,
    const catalog::TableDef& right) const {
  if (join_pred.kind != sql::Predicate::Kind::kJoin) {
    return Status::InvalidArgument("comparison predicate passed as join");
  }
  WMP_ASSIGN_OR_RETURN(const catalog::Column* lcol,
                       left.FindColumn(join_pred.lhs.column));
  WMP_ASSIGN_OR_RETURN(const catalog::Column* rcol,
                       right.FindColumn(join_pred.rhs.column));
  const double ndv_max =
      std::max<double>(1.0, static_cast<double>(std::max(
                                lcol->stats().ndv, rcol->stats().ndv)));
  return ClampSel(1.0 / ndv_max);
}

Result<double> OptimizerCardinalityModel::GroupCount(
    const std::vector<std::pair<const catalog::TableDef*, std::string_view>>& columns,
    double input_card) const {
  double groups = 1.0;
  for (const auto& [table, column] : columns) {
    WMP_ASSIGN_OR_RETURN(const catalog::Column* col, table->FindColumn(column));
    groups *= std::max<double>(static_cast<double>(col->stats().ndv), 1.0);
  }
  return std::max(1.0, std::min(groups, input_card));
}

// ---------------------------------------------------------------------------
// True model: skew, correlation, fanout.
// ---------------------------------------------------------------------------

Result<double> TrueCardinalityModel::PredicateSelectivity(
    const sql::Predicate& pred, const catalog::TableDef& table) const {
  if (pred.kind != sql::Predicate::Kind::kComparison) {
    return Status::InvalidArgument("join predicate passed as comparison");
  }
  // Generator-attached ground truth wins when present.
  if (pred.true_selectivity >= 0.0) return ClampSel(pred.true_selectivity);

  WMP_ASSIGN_OR_RETURN(const catalog::Column* col,
                       table.FindColumn(pred.lhs.column));
  const catalog::ColumnStats& stats = col->stats();
  const double ndv = std::max<double>(static_cast<double>(stats.ndv), 1.0);
  const double theta = stats.zipf_skew;
  switch (pred.op) {
    case sql::CompareOp::kEq:
      // Constant drawn from the data distribution: collision probability.
      return ClampSel(ZipfCollisionProb(ndv, theta));
    case sql::CompareOp::kNe:
      return ClampSel(1.0 - ZipfCollisionProb(ndv, theta));
    case sql::CompareOp::kIn:
      return ClampSel(static_cast<double>(pred.values.size()) *
                      ZipfCollisionProb(ndv, theta));
    case sql::CompareOp::kLike:
      // Text matching on skewed domains hits the hot values more often
      // than the optimizer's 10% guess on skewed columns.
      return ClampSel(OptimizerCardinalityModel::kLikeSelectivity *
                      (1.0 + theta));
    case sql::CompareOp::kLt:
    case sql::CompareOp::kLe:
    case sql::CompareOp::kGt:
    case sql::CompareOp::kGe:
    case sql::CompareOp::kBetween: {
      // Hot values sit at the low end of the domain (rank = value order),
      // so the row mass below a cutoff follows the Zipf CDF while the
      // optimizer sees only the geometric fraction.
      const double frac = DomainFraction(pred, stats);
      if (pred.op == sql::CompareOp::kGt || pred.op == sql::CompareOp::kGe) {
        return ClampSel(1.0 - ZipfCdfApprox((1.0 - frac) * ndv, ndv, theta));
      }
      if (pred.op == sql::CompareOp::kBetween) {
        // Approximate mass of the covered band assuming it starts where
        // the lower bound's fraction lands.
        const double lo_frac =
            std::clamp((pred.values[0].number - stats.min_value) /
                           std::max(stats.max_value - stats.min_value, 1e-12),
                       0.0, 1.0);
        const double hi_frac = std::clamp(lo_frac + frac, 0.0, 1.0);
        return ClampSel(ZipfCdfApprox(hi_frac * ndv, ndv, theta) -
                        ZipfCdfApprox(lo_frac * ndv, ndv, theta));
      }
      return ClampSel(ZipfCdfApprox(frac * ndv, ndv, theta));
    }
  }
  return Status::Internal("unhandled comparison op");
}

Result<double> TrueCardinalityModel::ConjunctionSelectivity(
    const std::vector<const sql::Predicate*>& preds,
    const catalog::TableDef& table) const {
  if (preds.empty()) return 1.0;
  // Individual true selectivities.
  std::vector<double> sels(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    WMP_ASSIGN_OR_RETURN(sels[i], PredicateSelectivity(*preds[i], table));
  }
  // Exponential backoff for declared correlations: a fully-correlated
  // second predicate adds no extra filtering.
  double sel = sels[0];
  for (size_t i = 1; i < preds.size(); ++i) {
    double max_corr = 0.0;
    for (size_t j = 0; j < i; ++j) {
      max_corr = std::max(
          max_corr, table.CorrelationBetween(preds[i]->lhs.column,
                                             preds[j]->lhs.column));
    }
    sel *= std::pow(sels[i], 1.0 - max_corr);
  }
  return ClampSel(sel);
}

Result<double> TrueCardinalityModel::JoinSelectivity(
    const sql::Predicate& join_pred, const catalog::TableDef& left,
    const catalog::TableDef& right) const {
  OptimizerCardinalityModel base(catalog_);
  WMP_ASSIGN_OR_RETURN(double sel,
                       base.JoinSelectivity(join_pred, left, right));
  // Fanout skew declared on the FK edge scales the true output up: a few
  // hot parent keys own a disproportionate share of child rows.
  double skew = 1.0;
  if (const catalog::ForeignKey* fk =
          left.FindForeignKey(join_pred.lhs.column);
      fk != nullptr && fk->ref_table == right.name()) {
    skew = fk->fanout_skew;
  } else if (const catalog::ForeignKey* rfk =
                 right.FindForeignKey(join_pred.rhs.column);
             rfk != nullptr && rfk->ref_table == left.name()) {
    skew = rfk->fanout_skew;
  }
  if (join_pred.true_selectivity >= 0.0) {
    return ClampSel(join_pred.true_selectivity);
  }
  return ClampSel(sel * skew);
}

Result<double> TrueCardinalityModel::GroupCount(
    const std::vector<std::pair<const catalog::TableDef*, std::string_view>>& columns,
    double input_card) const {
  double groups = 1.0;
  double mean_skew = 0.0;
  for (const auto& [table, column] : columns) {
    WMP_ASSIGN_OR_RETURN(const catalog::Column* col, table->FindColumn(column));
    groups *= std::max<double>(static_cast<double>(col->stats().ndv), 1.0);
    mean_skew += col->stats().zipf_skew;
  }
  if (!columns.empty()) mean_skew /= static_cast<double>(columns.size());
  // Occupancy correction: sampling `input_card` rows cannot hit more than
  // `groups * (1 - e^{-n/groups})` distinct combinations, and skewed
  // distributions concentrate rows on fewer groups still.
  const double occupancy =
      groups * (1.0 - std::exp(-input_card / std::max(groups, 1.0)));
  const double skew_shrink = 1.0 - 0.35 * std::min(mean_skew, 1.4);
  return std::max(1.0, std::min(occupancy * skew_shrink, input_card));
}

}  // namespace wmp::plan
