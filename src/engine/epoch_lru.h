#ifndef WMP_ENGINE_EPOCH_LRU_H_
#define WMP_ENGINE_EPOCH_LRU_H_

/// \file epoch_lru.h
/// The one set-associative, model-epoch-stamped cache behind both serving
/// caches: engine::HistogramCache (whole-workload histograms) and
/// engine::TemplateIdCache (per-query template ids) are thin adapters over
/// `EpochLru<V>`.
///
/// Keys are 64-bit content fingerprints (already splitmix64-mixed); a
/// collision returns the colliding entry's value, the standard
/// content-addressed-cache tradeoff (~2^-32 per pair).
///
/// Layout: keys hash across independent lock shards, and each shard owns a
/// fixed array of 8-way sets, allocated once at construction (per-shard
/// capacity is rounded up to whole sets; below 8 entries a shard is one
/// set of that many ways). A key may live in either of two candidate sets,
/// picked by two multiply-shift hashes of the fingerprint. A set keeps its
/// eight keys in one 64-byte line, so a probe compares one line per
/// candidate, and batched probes prefetch both candidates a few keys
/// ahead. There is no per-entry heap node: a way's value slot is reused by
/// its next occupant, so a histogram way keeps its vector's capacity.
///
/// Eviction: each shard hands out increasing u64 stamps, one per hit or
/// insert, and a way remembers its last one (stamp 0 marks an empty way,
/// since every u64 is a valid fingerprint). An insert takes an empty way of
/// the key's two sets, else evicts the older of the two sets' LRU ways: LRU
/// is exact over the key's 16 ways, not over the whole shard. On Zipf key
/// streams its hit rate stays within 0.005 of an exact LRU of the same size
/// (service_test's HitRateParityWithExactLru), where one candidate set
/// per key loses 1-3 points. A TemplateIdCache way takes 32 bytes, so the
/// default 64k ids fill one 2 MiB array.
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
/// Thread-safety: fully thread-safe. A caller holds one shard lock per key
/// (never two at once, so no lock order exists to get wrong); both of a
/// key's sets belong to its shard. Counters are relaxed atomics.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace wmp::engine {

/// Sizing of one cache; each adapter supplies its own default capacity.
struct CacheOptions {
  /// Maximum resident entries across all shards, rounded up to whole sets
  /// per shard; 0 disables insertion (every probe misses).
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

/// \brief Thread-safe set-associative map: fingerprint -> (epoch, V).
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
    const size_t per_shard =
        options.capacity == 0 ? 0 : (options.capacity + shards - 1) / shards;
    ways_ = std::min(per_shard, kWays);
    sets_per_shard_ = (per_shard + kWays - 1) / kWays;
    sets_ = std::make_unique<Set[]>(shards * sets_per_shard_);
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
    if (sets_per_shard_ > 0) {
      PrefetchFirst(keys, n);
      for (size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) Prefetch(keys[i + kPrefetchAhead]);
        const Candidates c = Locate(keys[i]);
        std::lock_guard<std::mutex> lock(c.shard->mutex);
        const Way way = Find(c, keys[i]);
        if (way.set == nullptr) continue;
        Set& set = *way.set;
        if (set.epochs[way.w] < epoch) {
          // Computed under a retired model. Erase now, so the way is free
          // for the value this miss is about to recompute.
          set.stamps[way.w] = 0;
          ++invalidated;
          size_.fetch_sub(1, std::memory_order_relaxed);
        } else if (set.epochs[way.w] == epoch &&
                   read(i, std::as_const(set.values[way.w]))) {
          set.stamps[way.w] = ++c.shard->clock;
          ++hits;
        }
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
  /// &value)` stores key i's value. For a new entry `value` is the way's
  /// previous occupant (a default V in a never-used way), so `write` must
  /// overwrite all of it; a vector keeps its capacity. Entries become most
  /// recently used, evicting the LRU way of the key's two sets when both
  /// are full. A refresh of an entry from a newer epoch is dropped without
  /// calling `write`.
  template <typename Write>
  void InsertBatch(const uint64_t* keys, size_t n, uint64_t epoch,
                   Write write) {
    if (sets_per_shard_ == 0) return;
    uint64_t inserted = 0, evicted = 0;
    PrefetchFirst(keys, n);
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) Prefetch(keys[i + kPrefetchAhead]);
      const Candidates c = Locate(keys[i]);
      std::lock_guard<std::mutex> lock(c.shard->mutex);
      Way way = Find(c, keys[i]);
      if (way.set != nullptr) {
        // Same fingerprint, same content: restamp and bump recency (and
        // rewrite, in case a histogram's width changed).
        Set& set = *way.set;
        if (set.epochs[way.w] <= epoch) {
          write(i, &set.values[way.w]);
          set.epochs[way.w] = epoch;
          set.stamps[way.w] = ++c.shard->clock;
        }
        continue;
      }
      // The smallest stamp of the key's ways: an empty way (stamp 0) when
      // there is one, else the least recently used entry.
      way = {c.a, 0};
      for (Set* set : {c.a, c.b}) {
        for (size_t w = 0; w < ways_; ++w) {
          if (set->stamps[w] < way.set->stamps[way.w]) way = {set, w};
        }
      }
      Set& set = *way.set;
      if (set.stamps[way.w] != 0) {
        ++evicted;
      } else {
        size_.fetch_add(1, std::memory_order_relaxed);
      }
      set.keys[way.w] = keys[i];
      set.epochs[way.w] = epoch;
      set.stamps[way.w] = ++c.shard->clock;
      write(i, &set.values[way.w]);
      ++inserted;
    }
    if (inserted > 0) {
      insertions_.fetch_add(inserted, std::memory_order_relaxed);
    }
    if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  }

  /// Up to `max_keys` resident keys of any epoch, in table order.
  std::vector<uint64_t> ResidentKeys(size_t max_keys) {
    std::vector<uint64_t> keys;
    keys.reserve(std::min(max_keys, size_.load(std::memory_order_relaxed)));
    for (size_t s = 0; s <= shard_mask_ && keys.size() < max_keys; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      const Set* sets = ShardSets(s);
      for (size_t i = 0; i < sets_per_shard_; ++i) {
        for (size_t w = 0; w < ways_ && keys.size() < max_keys; ++w) {
          if (sets[i].stamps[w] != 0) keys.push_back(sets[i].keys[w]);
        }
      }
    }
    return keys;
  }

  /// Drops every entry (the counters keep accumulating). Value slots keep
  /// their storage for the next occupants.
  void Clear() {
    for (size_t s = 0; s <= shard_mask_; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      Set* sets = ShardSets(s);
      size_t dropped = 0;
      for (size_t i = 0; i < sets_per_shard_; ++i) {
        for (uint64_t& stamp : sets[i].stamps) {
          dropped += stamp != 0;
          stamp = 0;
        }
      }
      size_.fetch_sub(dropped, std::memory_order_relaxed);
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
  static constexpr size_t kWays = 8;
  // Keys between a prefetch and its probe: enough to cover a memory
  // round trip behind the probes of the keys before it.
  static constexpr size_t kPrefetchAhead = 4;
  // Odd multipliers of the two candidate-set hashes.
  static constexpr uint64_t kSetMulA = 0x9E3779B97F4A7C15ull;
  static constexpr uint64_t kSetMulB = 0xD6E8FEB86659FD93ull;

  struct alignas(64) Set {
    uint64_t keys[kWays] = {};    // one line: what a probe compares
    uint64_t stamps[kWays] = {};  // last-use stamps; 0 = empty way
    uint64_t epochs[kWays] = {};
    V values[kWays] = {};
  };
  struct alignas(64) Shard {
    std::mutex mutex;
    uint64_t clock = 0;  // the last stamp handed out; guarded by `mutex`
  };
  struct Candidates {
    Shard* shard;
    Set* a;
    Set* b;  // == a when both hashes pick one set
  };
  struct Way {
    Set* set;  // null: not resident
    size_t w;
  };

  Candidates Locate(uint64_t key) const {
    // Shard choice folds the high bits into the low ones; the set hashes
    // take the high bits of their products, a different range.
    const size_t s = (key ^ (key >> 32)) & shard_mask_;
    Set* sets = ShardSets(s);
    return {&shards_[s], sets + SetIndex(key * kSetMulA),
            sets + SetIndex(key * kSetMulB)};
  }

  // Shard s's sets_per_shard_ sets.
  Set* ShardSets(size_t s) const { return sets_.get() + s * sets_per_shard_; }

  // Maps a product onto [0, sets_per_shard_) by its high bits, so the set
  // count need not be a power of two.
  size_t SetIndex(uint64_t product) const {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(product) * sets_per_shard_) >> 64);
  }

  void Prefetch(uint64_t key) const {
    const Candidates c = Locate(key);
    __builtin_prefetch(c.a->keys);
    __builtin_prefetch(c.b->keys);
  }

  void PrefetchFirst(const uint64_t* keys, size_t n) const {
    for (size_t i = 0; i < std::min(n, kPrefetchAhead); ++i) {
      Prefetch(keys[i]);
    }
  }

  // The resident way holding `key` in either candidate set.
  static Way Find(const Candidates& c, uint64_t key) {
    for (Set* set : {c.a, c.b}) {
      for (size_t w = 0; w < kWays; ++w) {
        if (set->keys[w] == key && set->stamps[w] != 0) return {set, w};
      }
    }
    return {nullptr, 0};
  }

  size_t ways_ = 0;            // ways per set: 8, or fewer in a tiny shard
  size_t sets_per_shard_ = 0;  // 0 when capacity is 0
  size_t shard_mask_ = 0;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<Set[]> sets_;  // shard s's sets start at ShardSets(s)

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<size_t> size_{0};
};

}  // namespace wmp::engine

#endif  // WMP_ENGINE_EPOCH_LRU_H_
