// Edge-case coverage for the SQL front end: quoted identifiers, escaped
// strings, adversarially long identifiers, and deep/wide query shapes.
//
// These tests were locked in before the arena/interning conversion of the
// lexer + AST and must stay green after it, with the same ASTs and identical
// printer round-trips — they are the behavioral contract for that refactor.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace wmp::sql {
namespace {

// Print -> Parse -> Print must be a fixed point, and the reparsed AST must
// match the original structurally (select/from/where arity and identifiers).
void ExpectRoundTrip(const Query& q) {
  const std::string printed = Print(q);
  auto q2 = Parse(printed);
  ASSERT_TRUE(q2.ok()) << "printed: " << printed << " -> "
                       << q2.status().ToString();
  EXPECT_EQ(Print(*q2), printed);
  EXPECT_EQ(q2->select_list.size(), q.select_list.size());
  EXPECT_EQ(q2->from.size(), q.from.size());
  EXPECT_EQ(q2->where.size(), q.where.size());
  EXPECT_EQ(q2->group_by.size(), q.group_by.size());
  EXPECT_EQ(q2->order_by.size(), q.order_by.size());
  EXPECT_EQ(q2->limit, q.limit);
}

// ---------- quoted identifiers ----------

TEST(QuotedIdentTest, PreservesCaseAndSpaces) {
  auto q = Parse("SELECT \"Weird Col\" FROM \"My Table\"");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->select_list.size(), 1u);
  EXPECT_EQ(q->select_list[0].column.column, "Weird Col");
  ASSERT_EQ(q->from.size(), 1u);
  EXPECT_EQ(q->from[0].table, "My Table");
  ExpectRoundTrip(*q);
}

TEST(QuotedIdentTest, ReservedWordsUsableWhenQuoted) {
  auto q = Parse("SELECT \"select\".\"from\" FROM \"where\" \"select\"");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list[0].column.table, "select");
  EXPECT_EQ(q->select_list[0].column.column, "from");
  EXPECT_EQ(q->from[0].table, "where");
  EXPECT_EQ(q->from[0].alias, "select");
  ExpectRoundTrip(*q);
}

TEST(QuotedIdentTest, EmbeddedQuoteEscape) {
  auto q = Parse("SELECT \"a\"\"b\" FROM t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list[0].column.column, "a\"b");
  ExpectRoundTrip(*q);
}

TEST(QuotedIdentTest, MixedQuotedAndBareQualifiers) {
  auto q = Parse("SELECT t.\"Exact Name\" FROM big_table t "
                 "WHERE t.\"Exact Name\" > 5 ORDER BY t.\"Exact Name\"");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list[0].column.table, "t");
  EXPECT_EQ(q->select_list[0].column.column, "Exact Name");
  EXPECT_EQ(q->where[0].lhs.column, "Exact Name");
  ExpectRoundTrip(*q);
}

TEST(QuotedIdentTest, LeadingDigitAndSymbolsRequireQuotes) {
  auto q = Parse("SELECT \"2nd col\", \"a-b\" FROM \"99 tbl\"");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list[0].column.column, "2nd col");
  EXPECT_EQ(q->select_list[1].column.column, "a-b");
  EXPECT_EQ(q->from[0].table, "99 tbl");
  ExpectRoundTrip(*q);
}

TEST(QuotedIdentTest, EmptyQuotedIdentifierIsError) {
  EXPECT_TRUE(Lex("SELECT \"\" FROM t").status().IsInvalidArgument());
}

TEST(QuotedIdentTest, UnterminatedQuotedIdentifierIsError) {
  EXPECT_TRUE(Lex("SELECT \"oops FROM t").status().IsInvalidArgument());
}

TEST(QuotedIdentTest, QuoteIdentifierHelper) {
  EXPECT_EQ(QuoteIdentifier("plain_col2"), "plain_col2");
  EXPECT_EQ(QuoteIdentifier("Upper"), "\"Upper\"");
  EXPECT_EQ(QuoteIdentifier("has space"), "\"has space\"");
  EXPECT_EQ(QuoteIdentifier("select"), "\"select\"");
  EXPECT_EQ(QuoteIdentifier("2nd"), "\"2nd\"");
  EXPECT_EQ(QuoteIdentifier("a\"b"), "\"a\"\"b\"");
}

// ---------- escaped strings ----------

TEST(EscapedStringTest, DoubledQuoteForms) {
  auto tokens = Lex("'' 'o''brien' '''' 'a''''b'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "");
  EXPECT_EQ((*tokens)[1].text, "o'brien");
  EXPECT_EQ((*tokens)[2].text, "'");
  EXPECT_EQ((*tokens)[3].text, "a''b");
}

TEST(EscapedStringTest, RoundTripThroughPredicate) {
  auto q = Parse("SELECT a FROM t WHERE name LIKE '%o''brien%'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->where[0].values[0].text, "%o'brien%");
  // NOTE: the printer emits the raw string; re-lexing restores the quote.
  const std::string printed = Print(*q);
  auto q2 = Parse(printed);
  ASSERT_TRUE(q2.ok()) << "printed: " << printed;
  EXPECT_EQ(q2->where[0].values[0].text, "%o'brien%");
}

// ---------- number literals ----------

// The lexer takes any run of digits, dots and exponents as one number token;
// the parser must read all of it as one finite double or fail at its offset.
TEST(NumberLiteralTest, MalformedOrInfiniteNumbersFailAtTheirOffset) {
  for (const char* number : {"1.2.3", "1e", "1e400", "-1e400"}) {
    const std::string sql = std::string("SELECT a FROM t WHERE a = ") + number;
    auto q = Parse(sql);
    ASSERT_TRUE(q.status().IsInvalidArgument()) << sql;
    EXPECT_NE(q.status().message().find("at offset 26"), std::string::npos)
        << q.status().ToString();
  }
}

TEST(NumberLiteralTest, LongLiteralReadsWhole) {
  const std::string digits = "1" + std::string(99, '0');
  auto q = Parse("SELECT a FROM t WHERE a = " + digits);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->where[0].values[0].number, 1e99);
}

TEST(NumberLiteralTest, LimitMustFitInt64) {
  EXPECT_TRUE(Parse("SELECT a FROM t LIMIT 1e30").status().IsInvalidArgument());
  auto q = Parse("SELECT a FROM t LIMIT 9007199254740992");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->limit, int64_t{1} << 53);
}

// ---------- adversarial identifier lengths ----------

TEST(LongIdentTest, EightKilobyteIdentifierRoundTrips) {
  const std::string big(8192, 'x');
  auto q = Parse("SELECT " + big + " FROM t WHERE " + big + " = 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list[0].column.column, big);
  EXPECT_EQ(q->where[0].lhs.column, big);
  ExpectRoundTrip(*q);
}

TEST(LongIdentTest, LongQuotedIdentifierWithSpaces) {
  std::string big;
  for (int i = 0; i < 1000; ++i) big += "Seg ";
  auto q = Parse("SELECT \"" + big + "\" FROM t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list[0].column.column, big);
  ExpectRoundTrip(*q);
}

TEST(LongIdentTest, KeywordPrefixedIdentifiersStayIdentifiers) {
  auto q = Parse("SELECT selected, fromage, distinctive FROM t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list[0].column.column, "selected");
  EXPECT_EQ(q->select_list[1].column.column, "fromage");
  EXPECT_EQ(q->select_list[2].column.column, "distinctive");
  ExpectRoundTrip(*q);
}

// ---------- deep / wide query shapes ----------

TEST(DeepShapeTest, WideInList) {
  std::string sql = "SELECT a FROM t WHERE b IN (0";
  for (int i = 1; i < 2000; ++i) sql += ", " + std::to_string(i);
  sql += ")";
  auto q = Parse(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where.size(), 1u);
  ASSERT_EQ(q->where[0].values.size(), 2000u);
  EXPECT_EQ(q->where[0].values[1999].number, 1999.0);
  ExpectRoundTrip(*q);
}

TEST(DeepShapeTest, ManyConjuncts) {
  std::string sql = "SELECT a FROM t WHERE c0 = 0";
  for (int i = 1; i < 500; ++i) {
    sql += " AND c" + std::to_string(i) + " = " + std::to_string(i);
  }
  auto q = Parse(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where.size(), 500u);
  EXPECT_EQ(q->where[499].lhs.column, "c499");
  ExpectRoundTrip(*q);
}

TEST(DeepShapeTest, ManySelectItemsAndTables) {
  std::string sql = "SELECT t0.c";
  for (int i = 1; i < 300; ++i) sql += ", t" + std::to_string(i) + ".c";
  sql += " FROM t0";
  for (int i = 1; i < 300; ++i) sql += ", t" + std::to_string(i);
  auto q = Parse(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list.size(), 300u);
  EXPECT_EQ(q->from.size(), 300u);
  EXPECT_EQ(q->from[299].table, "t299");
  ExpectRoundTrip(*q);
}

TEST(DeepShapeTest, CombinedStress) {
  std::string sql =
      "SELECT DISTINCT \"Fact\".\"Big Measure\", SUM(f.amount), COUNT(*) "
      "FROM fact_sales f, \"Fact\", dim_date \"D 1\" "
      "WHERE f.date_id = \"D 1\".id AND \"Fact\".\"Big Measure\" BETWEEN "
      "-1.5 AND 2e3 AND f.region IN (1, 2, 3) AND f.note LIKE 'it''s %' "
      "GROUP BY f.region ORDER BY f.region DESC LIMIT 42";
  auto q = Parse(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->distinct);
  EXPECT_EQ(q->select_list[0].column.table, "Fact");
  EXPECT_EQ(q->from[2].alias, "D 1");
  EXPECT_EQ(q->where[0].kind, Predicate::Kind::kJoin);
  EXPECT_EQ(q->where[3].values[0].text, "it's %");
  EXPECT_EQ(q->limit, 42);
  ExpectRoundTrip(*q);
}

}  // namespace
}  // namespace wmp::sql
