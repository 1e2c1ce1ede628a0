#ifndef WMP_SQL_LEXER_H_
#define WMP_SQL_LEXER_H_

/// \file lexer.h
/// Tokenizer for the SQL subset. Keywords are case-insensitive; identifiers
/// preserve case (lowered for matching downstream).
///
/// Tokens are allocation-free views: keyword/symbol text points at static
/// canonical spellings, and everything else points either into the input
/// buffer or into the caller's arena (lowered identifiers, unescaped
/// strings). One warmed arena lexes an entire batch of queries with zero
/// heap traffic.

#include <string>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/status.h"

namespace wmp::sql {

/// Token categories.
enum class TokenType : uint8_t {
  kKeyword,     ///< SELECT, FROM, WHERE, ... (normalized upper-case)
  kIdentifier,  ///< table/column names; bare ones are lowered, double-quoted
                ///< ones keep their exact spelling ("" escapes a quote)
  kNumber,
  kString,      ///< single-quoted literal, quotes stripped
  kSymbol,      ///< punctuation / operators: ( ) , . = <> <= >= < > *
  kEnd,
};

/// \brief A single token with its source offset (for error messages).
struct Token {
  TokenType type = TokenType::kEnd;
  std::string_view text;
  size_t offset = 0;

  bool IsKeyword(const char* kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
  bool IsSymbol(const char* s) const {
    return type == TokenType::kSymbol && text == s;
  }
};

/// \brief Tokenizes `input` into `*out` (cleared first). Token text views
/// into `input`, `arena`, or static storage — valid while both the input
/// buffer and the arena epoch live. Returns InvalidArgument on malformed
/// input (unterminated string/quoted identifier, stray character).
Status LexInto(std::string_view input, util::Arena* arena,
               std::vector<Token>* out);

/// \brief Convenience form: tokenizes into a thread-local arena (the input
/// is copied there too, so the tokens do not borrow from `input`). The
/// returned tokens are valid until the next Lex/Parse call on this thread.
Result<std::vector<Token>> Lex(const std::string& input);

/// True if `word`, in any case, is a reserved keyword ("order", "Select").
bool IsReservedKeyword(std::string_view word);

}  // namespace wmp::sql

#endif  // WMP_SQL_LEXER_H_
