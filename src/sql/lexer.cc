#include "sql/lexer.h"

#include <cctype>
#include <set>

#include "util/strings.h"

namespace wmp::sql {

namespace {

// Canonical spellings; keyword tokens view into this static table.
const std::set<std::string_view>& Keywords() {
  static const std::set<std::string_view> kKeywords = {
      "SELECT", "FROM",  "WHERE",    "AND",   "GROUP", "BY",
      "ORDER",  "LIMIT", "DISTINCT", "AS",    "BETWEEN", "IN",
      "LIKE",   "COUNT", "SUM",      "AVG",   "MIN",   "MAX",
      "ASC",    "DESC",  "NOT",      "OR",    "JOIN",  "ON",
  };
  return kKeywords;
}

constexpr size_t kMaxKeywordLen = 8;  // DISTINCT

const char* SymbolText(char c) {
  switch (c) {
    case '(': return "(";
    case ')': return ")";
    case ',': return ",";
    case '.': return ".";
    case '=': return "=";
    case '<': return "<";
    case '>': return ">";
    case '*': return "*";
    case ';': return ";";
  }
  return "?";
}

// The keyword `word` spells in any case, as its canonical view into the
// keyword table; empty when it is none. Upper-cases into a stack buffer.
std::string_view CanonicalKeyword(std::string_view word) {
  if (word.size() > kMaxKeywordLen) return {};
  char upper[kMaxKeywordLen];
  for (size_t j = 0; j < word.size(); ++j) {
    upper[j] =
        static_cast<char>(std::toupper(static_cast<unsigned char>(word[j])));
  }
  const auto it = Keywords().find(std::string_view(upper, word.size()));
  return it == Keywords().end() ? std::string_view() : *it;
}

}  // namespace

bool IsReservedKeyword(std::string_view word) {
  return !CanonicalKeyword(word).empty();
}

Status LexInto(std::string_view input, util::Arena* arena,
               std::vector<Token>* out) {
  out->clear();
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      bool has_upper = false;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        has_upper |= std::isupper(static_cast<unsigned char>(input[i])) != 0;
        ++i;
      }
      const std::string_view word = input.substr(start, i - start);
      if (const std::string_view keyword = CanonicalKeyword(word);
          !keyword.empty()) {
        out->push_back({TokenType::kKeyword, keyword, start});
        continue;
      }
      std::string_view text = word;
      if (has_upper) {  // lowered copy in the arena
        char* lowered = arena->AllocateArray<char>(word.size());
        for (size_t j = 0; j < word.size(); ++j) {
          lowered[j] = static_cast<char>(
              std::tolower(static_cast<unsigned char>(word[j])));
        }
        text = {lowered, word.size()};
      }
      out->push_back({TokenType::kIdentifier, text, start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      ++i;  // sign or first digit
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
                       ((input[i] == '+' || input[i] == '-') &&
                        (input[i - 1] == 'e' || input[i - 1] == 'E')))) {
        ++i;
      }
      out->push_back(
          {TokenType::kNumber, input.substr(start, i - start), start});
      continue;
    }
    if (c == '"') {  // quoted identifier: case-preserved, "" escapes a quote
      ++i;
      size_t escapes = 0;
      const size_t body = i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '"') {
          if (i + 1 < n && input[i + 1] == '"') {
            ++escapes;
            i += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated quoted identifier at offset %zu", start));
      }
      std::string_view text = input.substr(body, i - body);
      ++i;  // closing quote
      if (text.empty()) {
        return Status::InvalidArgument(
            StrFormat("empty quoted identifier at offset %zu", start));
      }
      if (escapes != 0) {  // unescape into the arena
        char* buf = arena->AllocateArray<char>(text.size() - escapes);
        size_t w = 0;
        for (size_t r = 0; r < text.size(); ++r) {
          buf[w++] = text[r];
          if (text[r] == '"') ++r;  // skip the doubled quote
        }
        text = {buf, w};
      }
      out->push_back({TokenType::kIdentifier, text, start});
      continue;
    }
    if (c == '\'') {
      ++i;
      size_t escapes = 0;
      const size_t body = i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {
            ++escapes;
            i += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      std::string_view text = input.substr(body, i - body);
      ++i;  // closing quote
      if (escapes != 0) {
        char* buf = arena->AllocateArray<char>(text.size() - escapes);
        size_t w = 0;
        for (size_t r = 0; r < text.size(); ++r) {
          buf[w++] = text[r];
          if (text[r] == '\'') ++r;
        }
        text = {buf, w};
      }
      out->push_back({TokenType::kString, text, start});
      continue;
    }
    // Two-character operators first.
    if (i + 1 < n) {
      const std::string_view two = input.substr(i, 2);
      if (two == "<>" || two == "!=") {
        out->push_back({TokenType::kSymbol, "<>", start});
        i += 2;
        continue;
      }
      if (two == "<=" || two == ">=") {
        out->push_back({TokenType::kSymbol, two == "<=" ? "<=" : ">=", start});
        i += 2;
        continue;
      }
    }
    switch (c) {
      case '(':
      case ')':
      case ',':
      case '.':
      case '=':
      case '<':
      case '>':
      case '*':
      case ';':
        out->push_back({TokenType::kSymbol, SymbolText(c), start});
        ++i;
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
  }
  out->push_back({TokenType::kEnd, {}, n});
  return Status::OK();
}

Result<std::vector<Token>> Lex(const std::string& input) {
  thread_local util::Arena arena(8 << 10);
  arena.Reset();
  // Copy the input into the arena so the tokens own no view into `input`
  // (callers routinely pass temporaries).
  const std::string_view stable = arena.CopyString(input);
  std::vector<Token> tokens;
  WMP_RETURN_IF_ERROR(LexInto(stable, &arena, &tokens));
  return tokens;
}

}  // namespace wmp::sql
