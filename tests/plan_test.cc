// Unit tests for cardinality models, the planner, EXPLAIN round-trips, and
// plan featurization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "plan/cardinality.h"
#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "test_schema.h"

namespace wmp::plan {
namespace {

using testing_support::MakeStarCatalog;

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : cat_(MakeStarCatalog()), planner_(&cat_) {}

  PlanTree Plan(const std::string& sql) {
    auto query = sql::Parse(sql);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto plan = planner_.CreatePlan(*query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan).value();
  }

  // Counts nodes of one operator type.
  static int CountOps(const PlanNode& root, OperatorType op) {
    int n = 0;
    root.Visit([&](const PlanNode& node) { n += node.op == op; });
    return n;
  }

  catalog::Catalog cat_;
  Planner planner_;
};

// ---------- harmonic / zipf helpers ----------

TEST(ZipfMathTest, HarmonicMatchesExactSmallN) {
  // H_4(1) = 1 + 1/2 + 1/3 + 1/4 = 2.0833
  EXPECT_NEAR(HarmonicApprox(4, 1.0), 2.0833, 0.08);
  // H_n(0) = n exactly.
  EXPECT_DOUBLE_EQ(HarmonicApprox(100, 0.0), 100.0);
}

// H_n(theta) summed directly: the exact loop over k <= min(n, 2048), then
// the midpoint-corrected integral tail past 2048.
double DirectHarmonic(double n, double theta) {
  constexpr double kLimit = 2048.0;
  double sum = 0.0;
  for (double k = 1.0; k <= std::min(n, kLimit); k += 1.0) {
    sum += std::pow(k, -theta);
  }
  if (n <= kLimit) return sum;
  if (std::fabs(theta - 1.0) < 1e-9) {
    return sum + std::log((n + 0.5) / (kLimit + 0.5));
  }
  return sum + (std::pow(n + 0.5, 1.0 - theta) -
                std::pow(kLimit + 0.5, 1.0 - theta)) /
                   (1.0 - theta);
}

TEST(ZipfMathTest, PrefixTablePathBitwiseEqualsDirectSummation) {
  // The per-theta prefix table must return the exact bit pattern of the
  // direct summation for every (n, theta), including fractional n, the
  // exact-summation boundary, and the integral tail.
  for (double theta : {0.2, 0.5, 1.0, 1.3, 2.6}) {
    for (double n :
         {1.0, 1.5, 7.0, 7.9, 100.25, 2047.0, 2048.0, 2048.5, 1e6}) {
      EXPECT_EQ(HarmonicApprox(n, theta), DirectHarmonic(n, theta))
          << "n=" << n << " theta=" << theta;
    }
  }
}

TEST(ZipfMathTest, CdfBoundsAndMonotonicity) {
  EXPECT_DOUBLE_EQ(ZipfCdfApprox(0, 100, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ZipfCdfApprox(100, 100, 1.0), 1.0);
  double prev = 0.0;
  for (double k = 1; k <= 100; k += 7) {
    const double c = ZipfCdfApprox(k, 100, 1.0);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(ZipfMathTest, CollisionProbExceedsUniformUnderSkew) {
  const double uniform = ZipfCollisionProb(1000, 0.0);
  EXPECT_NEAR(uniform, 1.0 / 1000, 2e-4);
  EXPECT_GT(ZipfCollisionProb(1000, 1.0), 3.0 * uniform);
}

// ---------- cardinality models ----------

TEST_F(PlanTest, OptimizerEqualitySelectivityIsOneOverNdv) {
  OptimizerCardinalityModel model(&cat_);
  const catalog::TableDef& sales = **cat_.FindTable("sales");
  auto pred = sql::Predicate::Comparison({"s", "s_qty"}, sql::CompareOp::kEq,
                                         {sql::Literal::Number(5)});
  EXPECT_NEAR(model.PredicateSelectivity(pred, sales).value(), 1.0 / 100,
              1e-12);
}

TEST_F(PlanTest, TrueEqualityExceedsOptimizerOnSkewedColumn) {
  // s_qty has zipf_skew 0.6: the true (frequency-weighted) selectivity of
  // an equality is higher than 1/ndv.
  OptimizerCardinalityModel opt(&cat_);
  TrueCardinalityModel oracle(&cat_);
  const catalog::TableDef& sales = **cat_.FindTable("sales");
  auto pred = sql::Predicate::Comparison({"s", "s_qty"}, sql::CompareOp::kEq,
                                         {sql::Literal::Number(5)});
  EXPECT_GT(oracle.PredicateSelectivity(pred, sales).value(),
            opt.PredicateSelectivity(pred, sales).value());
}

TEST_F(PlanTest, GeneratorHintOverridesTrueModel) {
  TrueCardinalityModel oracle(&cat_);
  const catalog::TableDef& sales = **cat_.FindTable("sales");
  auto pred = sql::Predicate::Comparison({"s", "s_qty"}, sql::CompareOp::kEq,
                                         {sql::Literal::Number(5)});
  pred.true_selectivity = 0.123;
  EXPECT_DOUBLE_EQ(oracle.PredicateSelectivity(pred, sales).value(), 0.123);
}

TEST_F(PlanTest, CorrelationBackoffRaisesConjunctionSelectivity) {
  // s_qty and s_price are declared 0.8-correlated: the true conjunction
  // filters less than the independent product.
  OptimizerCardinalityModel opt(&cat_);
  TrueCardinalityModel oracle(&cat_);
  const catalog::TableDef& sales = **cat_.FindTable("sales");
  auto p1 = sql::Predicate::Comparison({"s", "s_qty"}, sql::CompareOp::kLe,
                                       {sql::Literal::Number(20)});
  auto p2 = sql::Predicate::Comparison({"s", "s_price"}, sql::CompareOp::kLe,
                                       {sql::Literal::Number(2000)});
  std::vector<const sql::Predicate*> preds{&p1, &p2};
  const double opt_sel = opt.ConjunctionSelectivity(preds, sales).value();
  const double true_sel = oracle.ConjunctionSelectivity(preds, sales).value();
  EXPECT_GT(true_sel, opt_sel);
}

TEST_F(PlanTest, JoinFanoutSkewRaisesTrueJoinSize) {
  OptimizerCardinalityModel opt(&cat_);
  TrueCardinalityModel oracle(&cat_);
  const catalog::TableDef& sales = **cat_.FindTable("sales");
  const catalog::TableDef& customer = **cat_.FindTable("customer");
  auto join = sql::Predicate::Join({"s", "s_cust"}, {"c", "c_id"});
  const double opt_sel = opt.JoinSelectivity(join, sales, customer).value();
  const double true_sel = oracle.JoinSelectivity(join, sales, customer).value();
  EXPECT_NEAR(true_sel / opt_sel, 2.5, 1e-9);  // declared fanout skew
}

TEST_F(PlanTest, GroupCountCappedByInput) {
  OptimizerCardinalityModel opt(&cat_);
  const catalog::TableDef* sales = *cat_.FindTable("sales");
  const double groups =
      opt.GroupCount({{sales, "s_cust"}}, /*input_card=*/100).value();
  EXPECT_LE(groups, 100.0);
}

TEST_F(PlanTest, TrueGroupCountShrinksUnderSkew) {
  OptimizerCardinalityModel opt(&cat_);
  TrueCardinalityModel oracle(&cat_);
  const catalog::TableDef* sales = *cat_.FindTable("sales");
  const double est = opt.GroupCount({{sales, "s_cust"}}, 1e6).value();
  const double tru = oracle.GroupCount({{sales, "s_cust"}}, 1e6).value();
  EXPECT_LT(tru, est);
}

// ---------- planner ----------

TEST_F(PlanTest, SingleTableScanShape) {
  auto plan = Plan("SELECT s_id FROM sales WHERE s_qty > 50");
  EXPECT_EQ(plan->op, OperatorType::kReturn);
  EXPECT_EQ(CountOps(*plan, OperatorType::kTbScan), 1);
  EXPECT_EQ(CountOps(*plan, OperatorType::kHsJoin), 0);
}

TEST_F(PlanTest, SelectiveIndexedPredicateUsesIndexScan) {
  // s_date is indexed; equality on ndv=2000 gives sel 5e-4 < 0.05.
  auto plan = Plan("SELECT s_id FROM sales WHERE s_date = 77");
  EXPECT_EQ(CountOps(*plan, OperatorType::kIxScan), 1);
  EXPECT_EQ(CountOps(*plan, OperatorType::kFetch), 1);
  EXPECT_EQ(CountOps(*plan, OperatorType::kTbScan), 0);
}

TEST_F(PlanTest, UnselectivePredicateStaysTableScan) {
  auto plan = Plan("SELECT s_id FROM sales WHERE s_date > 100");
  EXPECT_EQ(CountOps(*plan, OperatorType::kIxScan), 0);
  EXPECT_EQ(CountOps(*plan, OperatorType::kTbScan), 1);
}

TEST_F(PlanTest, LikePredicateAddsFilter) {
  auto plan = Plan("SELECT c_id FROM customer WHERE c_name LIKE '%smith%'");
  EXPECT_EQ(CountOps(*plan, OperatorType::kFilter), 1);
}

TEST_F(PlanTest, TwoTableJoinUsesHashJoin) {
  auto plan = Plan(
      "SELECT s.s_id FROM sales s, customer c WHERE s.s_cust = c.c_id");
  EXPECT_EQ(CountOps(*plan, OperatorType::kHsJoin), 1);
  // Build side (children[1]) must be the smaller input (customer).
  const PlanNode* join = nullptr;
  plan->Visit([&](const PlanNode& n) {
    if (n.op == OperatorType::kHsJoin) join = &n;
  });
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->children.size(), 2u);
  EXPECT_LE(join->children[1]->output_card, join->children[0]->output_card);
}

TEST_F(PlanTest, SmallOuterWithIndexedInnerUsesNestedLoop) {
  // dates filtered to ~1 row (d_id = const), customer has index on c_id...
  // Use sales filtered by indexed s_date = const joined to dates via index.
  auto plan = Plan(
      "SELECT d.d_year FROM dates d, customer c "
      "WHERE d.d_id = c.c_id AND d.d_year = 2000");
  // dates filtered to ~333 rows -> small outer; customer has index on c_id.
  EXPECT_EQ(CountOps(*plan, OperatorType::kNlJoin), 1);
}

TEST_F(PlanTest, ThreeWayJoinShape) {
  auto plan = Plan(
      "SELECT c.c_region, SUM(s.s_price) FROM sales s, customer c, dates d "
      "WHERE s.s_cust = c.c_id AND s.s_date = d.d_id "
      "GROUP BY c.c_region");
  const int joins = CountOps(*plan, OperatorType::kHsJoin) +
                    CountOps(*plan, OperatorType::kNlJoin) +
                    CountOps(*plan, OperatorType::kMsJoin);
  EXPECT_EQ(joins, 2);
  EXPECT_EQ(CountOps(*plan, OperatorType::kGroupBy), 1);
  EXPECT_EQ(CountOps(*plan, OperatorType::kReturn), 1);
}

TEST_F(PlanTest, GroupByChoosesHashModeForSmallGroups) {
  auto plan = Plan(
      "SELECT c_region, COUNT(*) FROM customer GROUP BY c_region");
  const PlanNode* grpby = nullptr;
  plan->Visit([&](const PlanNode& n) {
    if (n.op == OperatorType::kGroupBy) grpby = &n;
  });
  ASSERT_NE(grpby, nullptr);
  EXPECT_TRUE(grpby->hash_mode);
  EXPECT_LE(grpby->output_card, 25.0 + 1.0);
}

TEST_F(PlanTest, OrderByAddsTopSort) {
  auto plan = Plan("SELECT s_id FROM sales ORDER BY s_id");
  EXPECT_EQ(CountOps(*plan, OperatorType::kSort), 1);
  // SORT must sit directly under RETURN.
  EXPECT_EQ(plan->children[0]->op, OperatorType::kSort);
}

TEST_F(PlanTest, DistinctBecomesGroupBy) {
  auto plan = Plan("SELECT DISTINCT c_region FROM customer");
  EXPECT_EQ(CountOps(*plan, OperatorType::kGroupBy), 1);
}

TEST_F(PlanTest, LimitCapsReturnCardinality) {
  auto plan = Plan("SELECT s_id FROM sales LIMIT 10");
  EXPECT_DOUBLE_EQ(plan->output_card, 10.0);
}

TEST_F(PlanTest, CardinalitiesPropagateSanely) {
  auto plan = Plan("SELECT s_id FROM sales WHERE s_qty = 5");
  plan->Visit([](const PlanNode& n) {
    EXPECT_GE(n.output_card, 1.0);
    EXPECT_GE(n.true_output_card, 1.0);
    // No operator increases cardinality except joins.
    if (n.op != OperatorType::kHsJoin && n.op != OperatorType::kNlJoin &&
        n.op != OperatorType::kMsJoin && !n.children.empty()) {
      EXPECT_LE(n.output_card, n.children[0]->output_card + 1e-9);
    }
  });
}

TEST_F(PlanTest, TrueCardsDivergeFromEstimates) {
  auto plan = Plan(
      "SELECT s.s_id FROM sales s, customer c "
      "WHERE s.s_cust = c.c_id AND s.s_qty = 5");
  const PlanNode* join = nullptr;
  plan->Visit([&](const PlanNode& n) {
    if (n.op == OperatorType::kHsJoin || n.op == OperatorType::kNlJoin ||
        n.op == OperatorType::kMsJoin) {
      join = &n;
    }
  });
  ASSERT_NE(join, nullptr);
  // Skewed predicate + fanout skew: truth exceeds the estimate.
  EXPECT_GT(join->true_output_card, join->output_card);
}

TEST_F(PlanTest, AnnotationCanBeDisabled) {
  PlannerOptions opt;
  opt.annotate_true_cardinalities = false;
  Planner p(&cat_, opt);
  auto query = sql::Parse("SELECT s_id FROM sales");
  auto plan = p.CreatePlan(*query);
  ASSERT_TRUE(plan.ok());
  (*plan)->Visit([](const PlanNode& n) {
    EXPECT_LT(n.true_output_card, 0.0);
  });
}

TEST_F(PlanTest, UnknownTableOrColumnRejected) {
  auto q1 = sql::Parse("SELECT x FROM ghost");
  EXPECT_TRUE(planner_.CreatePlan(*q1).status().IsNotFound());
  auto q2 = sql::Parse("SELECT ghost_col FROM sales");
  EXPECT_TRUE(planner_.CreatePlan(*q2).status().IsNotFound());
  auto q3 = sql::Parse("SELECT s_id FROM sales, customer WHERE c_id = 1 AND s_id = c_id");
  EXPECT_TRUE(planner_.CreatePlan(*q3).ok());  // unqualified but unique
}

TEST_F(PlanTest, AmbiguousUnqualifiedColumnRejected) {
  // Both sales and customer contain no common column name in this schema;
  // simulate ambiguity via duplicate alias instead.
  auto q = sql::Parse("SELECT s_id FROM sales s, customer s");
  EXPECT_TRUE(planner_.CreatePlan(*q).status().IsInvalidArgument());
}

// ---------- explain + parse round-trip ----------

TEST_F(PlanTest, ExplainContainsOperatorsAndCards) {
  auto plan = Plan(
      "SELECT c.c_region, COUNT(*) FROM sales s, customer c "
      "WHERE s.s_cust = c.c_id GROUP BY c.c_region ORDER BY c.c_region");
  const std::string text = Explain(*plan);
  EXPECT_NE(text.find("RETURN"), std::string::npos);
  EXPECT_NE(text.find("HSJOIN"), std::string::npos);
  EXPECT_NE(text.find("GRPBY"), std::string::npos);
  EXPECT_NE(text.find("out="), std::string::npos);
  EXPECT_NE(text.find("tout="), std::string::npos);
}

class ExplainRoundTrip : public PlanTest,
                         public ::testing::WithParamInterface<const char*> {};

TEST_P(ExplainRoundTrip, ParseReconstructsPlanExactly) {
  auto plan = Plan(GetParam());
  const std::string text = Explain(*plan);
  auto reparsed = ParseExplain(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(Explain(**reparsed), text);
  EXPECT_EQ((*reparsed)->TreeSize(), plan->TreeSize());
  // Features must survive the round trip bit-for-bit.
  EXPECT_EQ(ExtractPlanFeatures(**reparsed), ExtractPlanFeatures(*plan));
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ExplainRoundTrip,
    ::testing::Values(
        "SELECT s_id FROM sales WHERE s_qty = 5",
        "SELECT s_id FROM sales WHERE s_date = 9",
        "SELECT DISTINCT c_region FROM customer",
        "SELECT c_id FROM customer WHERE c_name LIKE '%a%'",
        "SELECT s.s_id FROM sales s, customer c WHERE s.s_cust = c.c_id",
        "SELECT c.c_region, SUM(s.s_price) FROM sales s, customer c, dates d "
        "WHERE s.s_cust = c.c_id AND s.s_date = d.d_id AND d.d_year = 2000 "
        "GROUP BY c.c_region ORDER BY c.c_region LIMIT 10"));

TEST(PlanParserTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseExplain("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseExplain("BOGUS in=1 out=1").status().IsNotFound());
  EXPECT_TRUE(ParseExplain("  RETURN in=1 out=1")  // root indented
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseExplain("RETURN in=1 out=1\n    TBSCAN(t) in=1 out=1")
                  .status()
                  .IsInvalidArgument());  // skips a level
  EXPECT_TRUE(ParseExplain("RETURN in=x out=1").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseExplain("RETURN bogus=1 out=1").status().IsInvalidArgument());
  // A numeric field is the whole field, and a key count fits an int.
  EXPECT_TRUE(
      ParseExplain("RETURN in=1abc out=1").status().IsInvalidArgument());
  // Fields are read with std::from_chars. strtod also took a leading '+'
  // and hex; Explain writes neither.
  for (const char* in : {"+1", "0x10", "1e400", "nan", "inf"}) {
    EXPECT_TRUE(ParseExplain(std::string("RETURN in=") + in + " out=1")
                    .status()
                    .IsInvalidArgument())
        << in;
  }
  auto read = ParseExplain("RETURN in=1e5 out=.5");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ((*read)->input_card, 1e5);
  EXPECT_EQ((*read)->output_card, 0.5);
  for (const char* keys : {"1e20", "-1", "2.5", "2147483648"}) {
    EXPECT_TRUE(ParseExplain(std::string("RETURN in=1 out=1 keys=") + keys)
                    .status()
                    .IsInvalidArgument())
        << keys;
  }
  auto most = ParseExplain("RETURN in=1 out=1 keys=2147483647");
  ASSERT_TRUE(most.ok()) << most.status().ToString();
  EXPECT_EQ((*most)->num_keys, 2147483647);
}

// ---------- features ----------

TEST_F(PlanTest, FeatureVectorLayoutMatchesFig2Scheme) {
  auto plan = Plan("SELECT s_id FROM sales WHERE s_qty = 5");
  auto features = ExtractPlanFeatures(*plan);
  ASSERT_EQ(features.size(), kPlanFeatureDim);
  // One TBSCAN and one RETURN; all other counts zero.
  const size_t tbscan = 2 * static_cast<size_t>(OperatorType::kTbScan);
  const size_t ret = 2 * static_cast<size_t>(OperatorType::kReturn);
  EXPECT_DOUBLE_EQ(features[tbscan], 1.0);
  EXPECT_GT(features[tbscan + 1], 0.0);
  EXPECT_DOUBLE_EQ(features[ret], 1.0);
  const size_t hsjoin = 2 * static_cast<size_t>(OperatorType::kHsJoin);
  EXPECT_DOUBLE_EQ(features[hsjoin], 0.0);
}

TEST_F(PlanTest, FeatureNamesAligned) {
  auto names = PlanFeatureNames();
  ASSERT_EQ(names.size(), kPlanFeatureDim);
  EXPECT_EQ(names[2 * static_cast<size_t>(OperatorType::kHsJoin)],
            "HSJOIN.count");
  EXPECT_EQ(names[2 * static_cast<size_t>(OperatorType::kHsJoin) + 1],
            "HSJOIN.card");
}

TEST_F(PlanTest, PlanCloneIsDeepAndEqual) {
  auto plan = Plan(
      "SELECT s.s_id FROM sales s, customer c WHERE s.s_cust = c.c_id");
  auto clone = plan.Clone();
  EXPECT_EQ(Explain(*clone), Explain(*plan));
  clone->children[0]->output_card = 99.0;
  EXPECT_NE(Explain(*clone), Explain(*plan));
}

}  // namespace
}  // namespace wmp::plan
