#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace wmp {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Status ParseFiniteDouble(std::string_view text, double* out) {
  const char* const end = text.data() + text.size();
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  const char* problem = nullptr;
  if (ec == std::errc::invalid_argument || stop != end) {
    problem = "non-numeric";
  } else if (ec == std::errc::result_out_of_range) {
    problem = "out-of-range";
  } else if (!std::isfinite(v)) {
    problem = "non-finite";
  } else {
    *out = v;
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrFormat("%s value '%.*s'", problem, static_cast<int>(text.size()),
                text.data()));
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendDouble17g(double v, std::string* out) {
  char buf[32];  // "%.17g" needs at most 24 characters
  const auto printed =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, static_cast<size_t>(printed.ptr - buf));
}

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  const auto printed = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(printed.ptr - buf));
}

}  // namespace wmp
