#ifndef WMP_ENGINE_TEMPLATE_CACHE_H_
#define WMP_ENGINE_TEMPLATE_CACHE_H_

/// \file template_cache.h
/// Set-associative cache of per-query template ids, keyed by
/// `QueryRecord::content_fingerprint` — the second cache level of the
/// serving path.
///
/// The histogram cache (histogram_cache.h) memoizes *whole workloads*; it
/// only pays off when the exact same query multiset recurs. Production
/// admission streams (the paper's §I deployment; Sibyl's template-repetitive
/// traces) instead repeat *individual* queries endlessly in novel
/// combinations. This cache memoizes the expensive per-query half of IN3 —
/// featurize + scale + nearest-centroid assign — so a workload made of
/// all-known queries builds its histogram from cached template ids without
/// touching the featurizer at all, even when its own fingerprint has never
/// been seen. Memoized ids are exactly the ids `TemplateModel::AssignBatch`
/// would compute, so downstream histograms and predictions are bitwise
/// unchanged by a hit.
///
/// Storage (lock shards of 8-way sets, two candidate sets per key, exact
/// LRU over a key's 16 ways), thread-safety and the model-epoch rule are
/// engine::EpochLru's (epoch_lru.h), shared with the histogram cache: a
/// retired model's assignments can never leak into the new model's
/// histograms, so dispatchers of different service shards may share one
/// cache over the same model. The `View` adapter binds (cache, epoch) into
/// the `core::TemplateIdResolver` interface the core binning path consumes
/// and additionally tallies per-call hit/miss counts for serving stats.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/template_resolver.h"
#include "engine/epoch_lru.h"

namespace wmp::engine {

/// \brief Thread-safe set-associative map: query fingerprint -> template
/// id.
class TemplateIdCache {
 public:
  /// A way takes 32 bytes (key, stamp, epoch and id, no heap node), so the
  /// default memoizes 64k distinct queries in one 2 MiB array.
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit TemplateIdCache(
      CacheOptions options = {.capacity = kDefaultCapacity})
      : lru_(options) {}

  /// Batched probe: for each `i` in `[0, n)`, on a hit under `epoch`
  /// writes the memoized id into `ids[i]` and sets `hit[i] = 1`, else sets
  /// `hit[i] = 0`. Returns the hit count.
  size_t LookupBatch(const uint64_t* keys, size_t n, uint64_t epoch, int* ids,
                     uint8_t* hit) {
    std::fill_n(hit, n, uint8_t{0});
    return lru_.LookupBatch(keys, n, epoch, [&](size_t i, int id) {
      ids[i] = id;
      hit[i] = 1;
      return true;
    });
  }

  /// Batched insert (or refresh) of `n` (key, id) pairs stamped with
  /// `epoch`.
  void InsertBatch(const uint64_t* keys, const int* ids, size_t n,
                   uint64_t epoch) {
    lru_.InsertBatch(keys, n, epoch, [&](size_t i, int* id) { *id = ids[i]; });
  }

  /// Drops every entry (stats counters keep accumulating).
  void Clear() { lru_.Clear(); }

  /// Snapshot of up to `max_keys` resident keys, in table order,
  /// regardless of entry epoch. This is the publish-time
  /// cache warmer's working set: entries stamped with the retired epoch are
  /// still resident (invalidation is lazy), and re-assigning exactly these
  /// queries under the new model turns the post-swap miss storm into hits.
  std::vector<uint64_t> ResidentKeys(size_t max_keys = SIZE_MAX) {
    return lru_.ResidentKeys(max_keys);
  }

  CacheStats stats() const { return lru_.stats(); }

  /// \brief Per-call resolver view bound to one model epoch.
  ///
  /// The core binning path (`LearnedWmpModel::AssignTemplateIds`) speaks
  /// `core::TemplateIdResolver`; a View pins the epoch of the scoring
  /// call's model snapshot so everything the call resolves and learns is
  /// consistently stamped, and counts that call's own hits/misses (the
  /// cache-wide counters aggregate across concurrent callers).
  class View : public core::TemplateIdResolver {
   public:
    View(TemplateIdCache* cache, uint64_t epoch)
        : cache_(cache), epoch_(epoch) {}

    size_t Resolve(const uint64_t* keys, size_t n, int* ids,
                   uint8_t* hit) override {
      const size_t hits = cache_->LookupBatch(keys, n, epoch_, ids, hit);
      hits_ += hits;
      misses_ += n - hits;
      return hits;
    }
    void Learn(const uint64_t* keys, const int* ids, size_t n) override {
      cache_->InsertBatch(keys, ids, n, epoch_);
    }

    size_t hits() const { return hits_; }
    size_t misses() const { return misses_; }

   private:
    TemplateIdCache* cache_;
    uint64_t epoch_;
    size_t hits_ = 0;
    size_t misses_ = 0;
  };

 private:
  EpochLru<int> lru_;
};

}  // namespace wmp::engine

#endif  // WMP_ENGINE_TEMPLATE_CACHE_H_
