#include "sql/parser.h"

#include "sql/lexer.h"
#include "util/arena.h"
#include "util/interner.h"
#include "util/strings.h"

namespace wmp::sql {

namespace {

/// Token-stream cursor with one-token lookahead helpers. Identifiers are
/// interned into the global pool as they enter the AST, so the Query owns
/// no identifier storage and outlives the token buffer.
class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  Result<Query> ParseQuery() {
    Query q;
    WMP_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (AcceptKeyword("DISTINCT")) q.distinct = true;
    WMP_RETURN_IF_ERROR(ParseSelectList(&q));
    WMP_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    WMP_RETURN_IF_ERROR(ParseTableList(&q));
    if (AcceptKeyword("WHERE")) {
      WMP_RETURN_IF_ERROR(ParseConjunction(&q));
    }
    if (AcceptKeyword("GROUP")) {
      WMP_RETURN_IF_ERROR(ExpectKeyword("BY"));
      WMP_RETURN_IF_ERROR(ParseColumnList(&q.group_by));
    }
    if (AcceptKeyword("ORDER")) {
      WMP_RETURN_IF_ERROR(ExpectKeyword("BY"));
      WMP_RETURN_IF_ERROR(ParseColumnList(&q.order_by));
      if (AcceptKeyword("ASC") || AcceptKeyword("DESC")) {
        // Direction is accepted but not modeled (memory-irrelevant).
      }
    }
    if (AcceptKeyword("LIMIT")) {
      WMP_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      // Range first: casting a double an int64_t cannot hold is undefined.
      if (lit.is_string || !(lit.number >= 0 && lit.number < 0x1p63)) {
        return Error("LIMIT requires a non-negative number below 2^63");
      }
      q.limit = static_cast<int64_t>(lit.number);
    }
    AcceptSymbol(";");
    if (!Peek().IsSymbol("") && Peek().type != TokenType::kEnd) {
      return Error("trailing tokens after query");
    }
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool AcceptKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Error(StrFormat("expected %s", kw));
    }
    return Status::OK();
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) {
      return Error(StrFormat("expected '%s'", s));
    }
    return Status::OK();
  }
  Status Error(const std::string& what) const {
    const std::string near(Peek().text);
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu (near '%s')", what.c_str(), Peek().offset,
                  near.c_str()));
  }

  Result<ColumnRef> ParseColumnRef() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected column reference");
    }
    ColumnRef ref;
    ref.column = util::Intern(Advance().text);
    if (AcceptSymbol(".")) {
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected column after '.'");
      }
      ref.table = ref.column;
      ref.column = util::Intern(Advance().text);
    }
    return ref;
  }

  Result<Literal> ParseLiteral() {
    if (Peek().type == TokenType::kNumber) {
      // The whole token must be one finite number, read in place: the
      // lexer takes any run of digits, dots and exponents ("1.2.3", "1e").
      double value = 0.0;
      if (Status st = ParseFiniteDouble(Peek().text, &value); !st.ok()) {
        return Error(st.message());
      }
      ++pos_;
      return Literal::Number(value);
    }
    if (Peek().type == TokenType::kString) {
      return Literal::String(std::string(Advance().text));
    }
    return Error("expected literal");
  }

  Status ParseSelectList(Query* q) {
    do {
      if (AcceptSymbol("*")) {
        q->select_list.push_back(SelectItem::Star());
        continue;
      }
      AggFunc agg = AggFunc::kNone;
      for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                        AggFunc::kMin, AggFunc::kMax}) {
        if (Peek().IsKeyword(AggFuncName(f))) {
          agg = f;
          ++pos_;
          break;
        }
      }
      if (agg != AggFunc::kNone) {
        WMP_RETURN_IF_ERROR(ExpectSymbol("("));
        if (AcceptSymbol("*")) {
          if (agg != AggFunc::kCount) return Error("only COUNT(*) allowed");
          q->select_list.push_back(SelectItem::CountStar());
        } else {
          WMP_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
          q->select_list.push_back(SelectItem::Agg(agg, std::move(ref)));
        }
        WMP_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else {
        WMP_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
        q->select_list.push_back(SelectItem::Col(std::move(ref)));
      }
    } while (AcceptSymbol(","));
    return Status::OK();
  }

  Status ParseTableList(Query* q) {
    do {
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected table name");
      }
      TableRef ref;
      ref.table = util::Intern(Advance().text);
      if (AcceptKeyword("AS")) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected alias after AS");
        }
        ref.alias = util::Intern(Advance().text);
      } else if (Peek().type == TokenType::kIdentifier) {
        ref.alias = util::Intern(Advance().text);  // bare alias
      }
      q->from.push_back(std::move(ref));
    } while (AcceptSymbol(","));
    return Status::OK();
  }

  Status ParseConjunction(Query* q) {
    do {
      WMP_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate());
      q->where.push_back(std::move(pred));
    } while (AcceptKeyword("AND"));
    return Status::OK();
  }

  Result<Predicate> ParsePredicate() {
    WMP_ASSIGN_OR_RETURN(ColumnRef lhs, ParseColumnRef());
    if (AcceptKeyword("BETWEEN")) {
      WMP_ASSIGN_OR_RETURN(Literal lo, ParseLiteral());
      WMP_RETURN_IF_ERROR(ExpectKeyword("AND"));
      WMP_ASSIGN_OR_RETURN(Literal hi, ParseLiteral());
      return Predicate::Comparison(std::move(lhs), CompareOp::kBetween,
                                   {std::move(lo), std::move(hi)});
    }
    if (AcceptKeyword("IN")) {
      WMP_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<Literal> values;
      do {
        WMP_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        values.push_back(std::move(lit));
      } while (AcceptSymbol(","));
      WMP_RETURN_IF_ERROR(ExpectSymbol(")"));
      return Predicate::Comparison(std::move(lhs), CompareOp::kIn,
                                   std::move(values));
    }
    if (AcceptKeyword("LIKE")) {
      if (Peek().type != TokenType::kString) {
        return Error("LIKE requires a string literal");
      }
      Literal pattern = Literal::String(std::string(Advance().text));
      return Predicate::Comparison(std::move(lhs), CompareOp::kLike,
                                   {std::move(pattern)});
    }
    CompareOp op;
    if (AcceptSymbol("=")) {
      op = CompareOp::kEq;
    } else if (AcceptSymbol("<>")) {
      op = CompareOp::kNe;
    } else if (AcceptSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (AcceptSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (AcceptSymbol("<")) {
      op = CompareOp::kLt;
    } else if (AcceptSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return Error("expected comparison operator");
    }
    // Column-vs-column equality is a join predicate.
    if (Peek().type == TokenType::kIdentifier) {
      WMP_ASSIGN_OR_RETURN(ColumnRef rhs, ParseColumnRef());
      if (op != CompareOp::kEq) {
        return Error("only equi-joins are supported");
      }
      return Predicate::Join(std::move(lhs), std::move(rhs));
    }
    WMP_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
    return Predicate::Comparison(std::move(lhs), op, {std::move(lit)});
  }

  Status ParseColumnList(std::vector<ColumnRef>* out) {
    do {
      WMP_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      out->push_back(std::move(ref));
    } while (AcceptSymbol(","));
    return Status::OK();
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> Parse(const std::string& input) {
  // Grow-only per-thread lexer scratch: a warmed thread parses with zero
  // lexer heap traffic. `input` outlives the Parser, so tokens may view it.
  thread_local util::Arena arena(16 << 10);
  thread_local std::vector<Token> tokens;
  arena.Reset();
  WMP_RETURN_IF_ERROR(LexInto(input, &arena, &tokens));
  Parser parser(tokens);
  return parser.ParseQuery();
}

}  // namespace wmp::sql
