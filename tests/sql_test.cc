// Unit tests for the SQL lexer, parser, printer, and AST helpers.

#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace wmp::sql {
namespace {

// ---------- lexer ----------

TEST(LexerTest, KeywordsNormalizedIdentifiersLowered) {
  auto tokens = Lex("select FOO.Bar From T");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "foo");
  EXPECT_TRUE((*tokens)[2].IsSymbol("."));
  EXPECT_EQ((*tokens)[3].text, "bar");
  EXPECT_TRUE((*tokens)[4].IsKeyword("FROM"));
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Lex("42 -3.5 1e6 'o''brien'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "42");
  EXPECT_EQ((*tokens)[1].text, "-3.5");
  EXPECT_EQ((*tokens)[2].text, "1e6");
  EXPECT_EQ((*tokens)[3].type, TokenType::kString);
  EXPECT_EQ((*tokens)[3].text, "o'brien");
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Lex("a <> b <= c >= d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<>"));
  EXPECT_TRUE((*tokens)[3].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[5].IsSymbol(">="));
  EXPECT_TRUE((*tokens)[7].IsSymbol("<>"));  // != normalized
}

TEST(LexerTest, UnterminatedStringIsError) {
  EXPECT_TRUE(Lex("select 'oops").status().IsInvalidArgument());
}

TEST(LexerTest, StrayCharacterIsError) {
  EXPECT_TRUE(Lex("select @foo").status().IsInvalidArgument());
}

TEST(LexerTest, EndTokenAlwaysPresent) {
  auto tokens = Lex("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kEnd);
}

// ---------- parser ----------

TEST(ParserTest, MinimalSelect) {
  auto q = Parse("SELECT * FROM lineitem");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->select_list.size(), 1u);
  EXPECT_TRUE(q->select_list[0].is_star);
  ASSERT_EQ(q->from.size(), 1u);
  EXPECT_EQ(q->from[0].table, "lineitem");
  EXPECT_TRUE(q->where.empty());
}

TEST(ParserTest, FullQueryShape) {
  auto q = Parse(
      "SELECT s.a, SUM(s.b), COUNT(*) FROM sales s, dates d "
      "WHERE s.date_id = d.id AND s.qty > 10 AND d.year BETWEEN 1999 AND 2001 "
      "AND s.region IN (1, 2, 3) AND s.note LIKE '%promo%' "
      "GROUP BY s.a ORDER BY s.a LIMIT 100");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list.size(), 3u);
  EXPECT_EQ(q->select_list[1].agg, AggFunc::kSum);
  EXPECT_TRUE(q->select_list[2].is_star);
  EXPECT_EQ(q->select_list[2].agg, AggFunc::kCount);
  ASSERT_EQ(q->from.size(), 2u);
  EXPECT_EQ(q->from[0].alias, "s");
  ASSERT_EQ(q->where.size(), 5u);
  EXPECT_EQ(q->where[0].kind, Predicate::Kind::kJoin);
  EXPECT_EQ(q->where[1].op, CompareOp::kGt);
  EXPECT_EQ(q->where[2].op, CompareOp::kBetween);
  ASSERT_EQ(q->where[3].values.size(), 3u);
  EXPECT_EQ(q->where[4].op, CompareOp::kLike);
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->limit, 100);
}

TEST(ParserTest, AsAliasAndBareAlias) {
  auto q = Parse("SELECT a FROM t AS x, u y");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->from[0].alias, "x");
  EXPECT_EQ(q->from[1].alias, "y");
  EXPECT_EQ(q->from[1].effective_name(), "y");
}

TEST(ParserTest, DistinctFlag) {
  auto q = Parse("SELECT DISTINCT c FROM t");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct);
}

TEST(ParserTest, JoinMustBeEquality) {
  EXPECT_TRUE(Parse("SELECT * FROM a, b WHERE a.x < b.y")
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserTest, SyntaxErrorsAnnotated) {
  auto st = Parse("SELECT FROM t").status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("offset"), std::string::npos);
  EXPECT_TRUE(Parse("SELECT a").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT a FROM t WHERE").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT a FROM t LIMIT 'x'").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT a FROM t extra junk ho")
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(Parse("SELECT a FROM t;").ok());
}

// ---------- printer round-trip ----------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintThenParseIsIdentity) {
  auto q1 = Parse(GetParam());
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  const std::string printed = Print(*q1);
  auto q2 = Parse(printed);
  ASSERT_TRUE(q2.ok()) << "printed: " << printed << " -> "
                       << q2.status().ToString();
  EXPECT_EQ(Print(*q2), printed);  // fixed point after one round
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "SELECT * FROM t",
        "SELECT a, b FROM t WHERE a = 5",
        "SELECT DISTINCT a FROM t ORDER BY a",
        "SELECT t.a, SUM(t.b) FROM t GROUP BY t.a",
        "SELECT a FROM t WHERE a BETWEEN 1 AND 10 LIMIT 5",
        "SELECT a FROM t WHERE b IN (1, 2, 3) AND c LIKE '%x%'",
        "SELECT x.a, COUNT(*) FROM t x, u y WHERE x.id = y.id AND x.v > 1.5 "
        "GROUP BY x.a ORDER BY x.a LIMIT 10",
        "SELECT MIN(a), MAX(b), AVG(c) FROM t WHERE d <> 0"));

// ---------- AST helpers ----------

TEST(AstTest, HasAggregationAndPredicateFilters) {
  auto q = Parse(
      "SELECT s.a, SUM(s.b) FROM sales s, dates d "
      "WHERE s.did = d.id AND s.qty > 10 AND d.year = 2000 GROUP BY s.a");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->HasAggregation());
  EXPECT_EQ(q->JoinPredicates().size(), 1u);
  EXPECT_EQ(q->LocalPredicates("s").size(), 1u);
  EXPECT_EQ(q->LocalPredicates("d").size(), 1u);
  EXPECT_EQ(q->LocalPredicates("zzz").size(), 0u);
}

TEST(AstTest, LiteralPrinting) {
  EXPECT_EQ(Literal::Number(42).ToString(), "42");
  EXPECT_EQ(Literal::Number(2.5).ToString(), "2.5");
  EXPECT_EQ(Literal::String("abc").ToString(), "'abc'");
  // Other numbers print as printf's "%g": six significant digits, with an
  // exponent below 1e-4 and from 1e6 on.
  EXPECT_EQ(Literal::Number(0.1).ToString(), "0.1");
  EXPECT_EQ(Literal::Number(1e-05).ToString(), "1e-05");
  EXPECT_EQ(Literal::Number(123456789.5).ToString(), "1.23457e+08");
  EXPECT_EQ(Literal::Number(-0.5).ToString(), "-0.5");
  EXPECT_EQ(Literal::Number(-0x1p63).ToString(), "-9223372036854775808");
  // A whole number an int64_t cannot hold prints as "%g" too, with no cast.
  EXPECT_EQ(Literal::Number(1e30).ToString(), "1e+30");
  EXPECT_EQ(Literal::Number(0x1p63).ToString(), "9.22337e+18");
  auto q = Parse("SELECT a FROM t WHERE a = 1e30");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(Print(*q), "SELECT a FROM t WHERE a = 1e+30");
}

// The printer's exact bytes: generated logs, their fingerprints and every
// model trained from them depend on them, so Print(Parse(sql)) == sql here.
TEST(PrinterTest, ExactText) {
  const std::string sql =
      "SELECT DISTINCT s.ss_customer_sk, \"Order\".\"limit\", COUNT(*) "
      "FROM store_sales s, \"Order\" "
      "WHERE s.ss_customer_sk = \"Order\".customer_id "
      "AND s.ss_quantity IN (1, 20, 300) "
      "AND s.ss_sales_price BETWEEN 0.5 AND 100 AND s.ss_quantity >= 5 "
      "AND \"Order\".note = 'o''brien' "
      "GROUP BY s.ss_customer_sk, \"Order\".\"limit\" "
      "ORDER BY s.ss_customer_sk LIMIT 10";
  auto q = Parse(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(Print(*q), sql);
}

TEST(AstTest, PredicateTrueSelectivityDefaultsUnknown) {
  auto q = Parse("SELECT a FROM t WHERE a = 1");
  ASSERT_TRUE(q.ok());
  EXPECT_LT(q->where[0].true_selectivity, 0.0);
}

}  // namespace
}  // namespace wmp::sql
