#ifndef WMP_ENGINE_EPOCH_LRU_H_
#define WMP_ENGINE_EPOCH_LRU_H_

/// \file epoch_lru.h
/// The one sharded, model-epoch-stamped LRU map behind both serving
/// caches: engine::HistogramCache (whole-workload histograms) and
/// engine::TemplateIdCache (per-query template ids) are thin adapters over
/// `EpochLru<V>`.
///
/// Keys are 64-bit content fingerprints (already splitmix64-mixed); a
/// collision returns the colliding entry's value, the standard
/// content-addressed-cache tradeoff (~2^-32 per pair).
///
/// Model versioning: every entry is stamped with the model *epoch* of the
/// caller that computed it (engine::BatchScorer bumps the epoch on each
/// PublishModel hot-swap), and this file holds the one rule that decides
/// whether a cached value may serve a caller:
///  * a probe at the entry's epoch may hit;
///  * a probe NEWER than the entry erases it: the model it served is
///    retired, and its value must never reach the new model;
///  * a probe OLDER than the entry (an in-flight flush still pinned to a
///    retired snapshot, racing a publish) misses and leaves the entry alone;
///  * an older writer's insert is dropped rather than clobbering what the
///    new model already cached.
///
/// Thread-safety: fully thread-safe. Keys hash across independent lock
/// shards, each with its own mutex and LRU list, and a caller holds one
/// shard lock per key (never two at once, so no lock order exists to get
/// wrong). Counters are relaxed atomics.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace wmp::engine {

/// Sizing of one cache; each adapter supplies its own default capacity.
struct CacheOptions {
  /// Maximum resident entries across all shards; 0 disables insertion
  /// (every probe misses).
  size_t capacity = 0;
  /// Lock shards (rounded up to a power of two, >= 1).
  size_t num_shards = 8;
};

/// Monotonic counters; `size` is the current resident entry count.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Entries dropped because a newer-epoch probe found them: the model
  /// was hot-swapped under them.
  uint64_t invalidations = 0;
  size_t size = 0;
};

/// \brief Thread-safe sharded LRU map: fingerprint -> (epoch, V).
template <typename V>
class EpochLru {
 public:
  explicit EpochLru(CacheOptions options) {
    size_t shards = 1;
    while (shards < options.num_shards) shards <<= 1;
    shard_mask_ = shards - 1;
    shards_ = std::make_unique<Shard[]>(shards);
    // Split the budget evenly; round up so small capacities still admit
    // one entry per shard rather than zero.
    per_shard_capacity_ =
        options.capacity == 0 ? 0 : (options.capacity + shards - 1) / shards;
  }

  /// Probes `keys[0..n)` under `epoch` and returns the hit count. For a
  /// resident entry at `epoch`, `read(i, value)` decides: true is a hit
  /// (the entry becomes most recently used), false a miss that leaves the
  /// entry where it is. `read` runs under the key's shard lock.
  template <typename Read>
  size_t LookupBatch(const uint64_t* keys, size_t n, uint64_t epoch,
                     Read read) {
    size_t hits = 0;
    uint64_t invalidated = 0;
    for (size_t i = 0; i < n; ++i) {
      Shard& shard = ShardFor(keys[i]);
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.index.find(keys[i]);
      if (it == shard.index.end()) continue;
      const auto entry = it->second;
      if (entry->epoch < epoch) {
        // Computed under a retired model. Erase now, so the slot is free
        // for the value this miss is about to recompute.
        shard.lru.erase(entry);
        shard.index.erase(it);
        ++invalidated;
        size_.fetch_sub(1, std::memory_order_relaxed);
      } else if (entry->epoch == epoch && read(i, entry->value)) {
        shard.lru.splice(shard.lru.begin(), shard.lru, entry);
        ++hits;
      }
    }
    if (hits > 0) hits_.fetch_add(hits, std::memory_order_relaxed);
    if (hits < n) misses_.fetch_add(n - hits, std::memory_order_relaxed);
    if (invalidated > 0) {
      invalidations_.fetch_add(invalidated, std::memory_order_relaxed);
    }
    return hits;
  }

  /// Inserts or refreshes `keys[0..n)` stamped with `epoch`; `write(i,
  /// &value)` stores key i's value, into a default-constructed V for a new
  /// entry. Entries become most recently used, and each shard evicts its
  /// least recently used entry when over budget. A refresh of an entry
  /// from a newer epoch is dropped without calling `write`.
  template <typename Write>
  void InsertBatch(const uint64_t* keys, size_t n, uint64_t epoch,
                   Write write) {
    if (per_shard_capacity_ == 0) return;
    uint64_t inserted = 0, evicted = 0;
    for (size_t i = 0; i < n; ++i) {
      Shard& shard = ShardFor(keys[i]);
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.index.find(keys[i]);
      if (it != shard.index.end()) {
        // Same fingerprint, same content: restamp and bump recency (and
        // rewrite, in case a histogram's width changed).
        const auto entry = it->second;
        if (entry->epoch <= epoch) {
          write(i, &entry->value);
          entry->epoch = epoch;
          shard.lru.splice(shard.lru.begin(), shard.lru, entry);
        }
        continue;
      }
      shard.lru.push_front(Entry{keys[i], epoch, V{}});
      write(i, &shard.lru.front().value);
      shard.index.emplace(keys[i], shard.lru.begin());
      ++inserted;
      size_.fetch_add(1, std::memory_order_relaxed);
      if (shard.lru.size() > per_shard_capacity_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++evicted;
        size_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (inserted > 0) {
      insertions_.fetch_add(inserted, std::memory_order_relaxed);
    }
    if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  }

  /// Up to `max_keys` resident keys of any epoch, most recently used first
  /// within each shard.
  std::vector<uint64_t> ResidentKeys(size_t max_keys) {
    std::vector<uint64_t> keys;
    keys.reserve(std::min(max_keys, size_.load(std::memory_order_relaxed)));
    for (size_t s = 0; s <= shard_mask_ && keys.size() < max_keys; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      for (const Entry& e : shards_[s].lru) {
        if (keys.size() >= max_keys) break;
        keys.push_back(e.key);
      }
    }
    return keys;
  }

  /// Drops every entry (the counters keep accumulating).
  void Clear() {
    for (size_t s = 0; s <= shard_mask_; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      size_.fetch_sub(shards_[s].lru.size(), std::memory_order_relaxed);
      shards_[s].lru.clear();
      shards_[s].index.clear();
    }
  }

  CacheStats stats() const {
    CacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.insertions = insertions_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.invalidations = invalidations_.load(std::memory_order_relaxed);
    st.size = size_.load(std::memory_order_relaxed);
    return st;
  }

 private:
  struct Entry {
    uint64_t key;
    uint64_t epoch;
    V value;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(uint64_t key) {
    // Fold the high bits in so shard choice and map bucketing use
    // different bit ranges of the fingerprint.
    return shards_[(key ^ (key >> 32)) & shard_mask_];
  }

  size_t per_shard_capacity_ = 0;
  size_t shard_mask_ = 0;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<size_t> size_{0};
};

}  // namespace wmp::engine

#endif  // WMP_ENGINE_EPOCH_LRU_H_
