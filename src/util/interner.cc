#include "util/interner.h"

#include <mutex>
#include <shared_mutex>
#include <unordered_set>

#include "util/arena.h"

namespace wmp::util {

struct StringInterner::Impl {
  mutable std::shared_mutex mu;
  std::unordered_set<std::string_view> set;
  Arena arena{64 << 10};
  size_t bytes = 0;
};

StringInterner::StringInterner() : impl_(new Impl) {}

StringInterner& StringInterner::Global() {
  // Leaked intentionally (see header): interned views outlive everything.
  static StringInterner* const interner = new StringInterner;
  return *interner;
}

std::string_view StringInterner::Intern(std::string_view s) {
  if (s.empty()) return {};
  // A per-thread set of canonical views in front of the shared pool, so a
  // hit takes no lock: parse workers on the pool would otherwise meet on
  // the shared mutex's reader count for every identifier. Sound because
  // interned views are never freed and Global() is the only instance.
  thread_local std::unordered_set<std::string_view> lookaside;
  if (auto it = lookaside.find(s); it != lookaside.end()) return *it;
  const std::string_view stored = InternShared(s);
  lookaside.insert(stored);
  return stored;
}

std::string_view StringInterner::InternShared(std::string_view s) {
  {
    std::shared_lock<std::shared_mutex> lock(impl_->mu);
    auto it = impl_->set.find(s);
    if (it != impl_->set.end()) return *it;
  }
  std::unique_lock<std::shared_mutex> lock(impl_->mu);
  auto it = impl_->set.find(s);
  if (it != impl_->set.end()) return *it;
  const std::string_view stored = impl_->arena.CopyString(s);
  impl_->set.insert(stored);
  impl_->bytes += stored.size();
  return stored;
}

size_t StringInterner::size() const {
  std::shared_lock<std::shared_mutex> lock(impl_->mu);
  return impl_->set.size();
}

size_t StringInterner::bytes() const {
  std::shared_lock<std::shared_mutex> lock(impl_->mu);
  return impl_->bytes;
}

}  // namespace wmp::util
