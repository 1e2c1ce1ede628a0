#ifndef WMP_UTIL_INTERNER_H_
#define WMP_UTIL_INTERNER_H_

/// \file interner.h
/// Process-wide string interning for identifiers.
///
/// The SQL AST and plan tree store identifiers (table/column/alias names,
/// operator detail strings) as `std::string_view` into the global interner:
/// the vocabulary is bounded by the schema + query families, so interning
/// turns every identifier copy into a pointer and makes AST/plan nodes
/// trivially destructible — the property the arena allocator relies on.
/// Interned storage is never freed; views stay valid for the process
/// lifetime, so they safely outlive any arena, record, or model.

#include <string_view>

namespace wmp::util {

/// \brief Thread-safe append-only intern pool. Each thread keeps the views
/// it has been handed, so a repeat lookup takes no lock.
class StringInterner {
 public:
  /// The process-wide pool.
  static StringInterner& Global();

  /// Returns the canonical copy of `s` (inserting it on first sight).
  std::string_view Intern(std::string_view s);

  /// Distinct strings held.
  size_t size() const;
  /// Bytes of interned character data.
  size_t bytes() const;

 private:
  StringInterner();
  ~StringInterner() = delete;  // never destroyed: views live forever

  /// Intern through the shared pool's lock.
  std::string_view InternShared(std::string_view s);

  struct Impl;
  Impl* impl_;
};

/// Shorthand for StringInterner::Global().Intern(s).
inline std::string_view Intern(std::string_view s) {
  return StringInterner::Global().Intern(s);
}

}  // namespace wmp::util

#endif  // WMP_UTIL_INTERNER_H_
