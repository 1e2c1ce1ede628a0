#ifndef WMP_UTIL_ARENA_H_
#define WMP_UTIL_ARENA_H_

/// \file arena.h
/// Bump allocator + arena-backed small vector for the cold featurization
/// path (SQL ASTs, plan trees, lexer scratch).
///
/// The front end allocates one arena per parse/plan batch, builds every node
/// into it, and calls Reset() between batches: chunks are kept and rewound,
/// so a warmed-up arena performs zero heap traffic per node. Objects placed
/// in an arena must be trivially destructible — nothing is destroyed, memory
/// is simply reused.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace wmp::util {

/// \brief Chunked bump allocator with a grow-only Reset.
class Arena {
 public:
  explicit Arena(size_t first_chunk_bytes = kDefaultFirstChunk)
      : next_chunk_bytes_(first_chunk_bytes) {
    if (next_chunk_bytes_ < kMinChunk) next_chunk_bytes_ = kMinChunk;
  }

  ~Arena() {
    for (const Chunk& c : chunks_) {
      ::operator delete(c.data, std::align_val_t(alignof(std::max_align_t)));
    }
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    assert((align & (align - 1)) == 0 && "alignment must be a power of two");
    if (bytes == 0) bytes = 1;
    uintptr_t ptr = (cursor_ + align - 1) & ~(uintptr_t{align} - 1);
    if (ptr + bytes > limit_) {
      NextChunk(bytes + align);
      ptr = (cursor_ + align - 1) & ~(uintptr_t{align} - 1);
    }
    cursor_ = ptr + bytes;
    bytes_allocated_ += bytes;
    return reinterpret_cast<void*>(ptr);
  }

  /// Constructs a T in the arena. T must be trivially destructible — the
  /// arena never runs destructors.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    void* p = Allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  /// Uninitialized array of `n` T.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Copies `s` into the arena; the view stays valid until Reset().
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return {};
    char* p = AllocateArray<char>(s.size());
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  /// Rewinds the arena, keeping every chunk for reuse (grow-only: a warmed
  /// arena never touches the heap again).
  void Reset() {
    bytes_allocated_ = 0;
    current_chunk_ = 0;
    if (chunks_.empty()) {
      cursor_ = limit_ = 0;
    } else {
      cursor_ = reinterpret_cast<uintptr_t>(chunks_[0].data);
      limit_ = cursor_ + chunks_[0].size;
    }
  }

  /// Bytes handed out since the last Reset (excludes alignment padding).
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total chunk bytes held.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr size_t kDefaultFirstChunk = 16 << 10;
  static constexpr size_t kMinChunk = 256;

  struct Chunk {
    char* data;
    size_t size;
  };

  void NextChunk(size_t min_bytes) {
    // Reuse a retained chunk if the next one is big enough, else grow.
    while (current_chunk_ + 1 < chunks_.size()) {
      ++current_chunk_;
      const Chunk& c = chunks_[current_chunk_];
      if (c.size >= min_bytes) {
        cursor_ = reinterpret_cast<uintptr_t>(c.data);
        limit_ = cursor_ + c.size;
        return;
      }
    }
    size_t size = next_chunk_bytes_;
    if (size < min_bytes) size = min_bytes;
    next_chunk_bytes_ = size * 2;
    char* data = static_cast<char*>(
        ::operator new(size, std::align_val_t(alignof(std::max_align_t))));
    chunks_.push_back({data, size});
    bytes_reserved_ += size;
    current_chunk_ = chunks_.size() - 1;
    cursor_ = reinterpret_cast<uintptr_t>(data);
    limit_ = cursor_ + size;
  }

  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  std::vector<Chunk> chunks_;
  size_t current_chunk_ = 0;
  size_t next_chunk_bytes_;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

/// \brief Arena-backed vector of trivially-destructible elements.
///
/// 16 bytes + one arena pointer; growth allocates from the arena (the old
/// buffer is abandoned there — bump arenas reclaim it wholesale on Reset).
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_destructible_v<T>,
                "ArenaVec elements live in an arena and are never destroyed");
  static_assert(std::is_trivially_copyable_v<T>,
                "growth relocates elements with memcpy");

 public:
  ArenaVec() = default;
  explicit ArenaVec(Arena* arena) : arena_(arena) {}

  /// Attaches the backing arena; required before the first push_back when
  /// default-constructed (e.g. as a member initialized later).
  void set_arena(Arena* arena) { arena_ = arena; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(size_t cap) {
    if (cap > cap_) Grow(cap);
  }

  void push_back(const T& v) {
    if (size_ == cap_) Grow(size_ ? size_t{cap_} * 2 : 4);
    data_[size_++] = v;
  }

 private:
  void Grow(size_t new_cap) {
    assert(arena_ != nullptr && "ArenaVec used without an arena");
    T* fresh = arena_->AllocateArray<T>(new_cap);
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    cap_ = static_cast<uint32_t>(new_cap);
  }

  T* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
  Arena* arena_ = nullptr;
};

}  // namespace wmp::util

#endif  // WMP_UTIL_ARENA_H_
