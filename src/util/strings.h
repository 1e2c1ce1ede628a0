#ifndef WMP_UTIL_STRINGS_H_
#define WMP_UTIL_STRINGS_H_

/// \file strings.h
/// Small string utilities shared across the SQL lexer, plan parser, and
/// report printers.

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace wmp {

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// Strips leading/trailing whitespace.
std::string_view Trim(std::string_view s);

/// Splits on any whitespace run; empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// True if `s` starts with `prefix` (case-sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Walks `text` line by line as views: the piece before each '\n',
/// then the rest after the last one (empty when `text` ends in '\n').
///
///   for (LineCursor lines(text); lines.Next(&line);) { ... }
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  /// Sets `*line` to the next line; false once every line was returned.
  bool Next(std::string_view* line) {
    if (pos_ > text_.size()) return false;
    size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    *line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return true;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// \brief Reads all of `text` as one finite decimal number, in place
/// (std::from_chars: no leading '+' or whitespace, no hex prefix). Fails
/// with InvalidArgument "non-numeric value '<text>'" when anything else is
/// left over, "non-finite value" for NaN or infinity, and "out-of-range
/// value" for a number a double cannot hold (1e400, 1e-400); callers
/// prefix where the text came from.
Status ParseFiniteDouble(std::string_view text, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders a byte count as a human-readable "12.3 KB" style string.
std::string HumanBytes(double bytes);

}  // namespace wmp

#endif  // WMP_UTIL_STRINGS_H_
