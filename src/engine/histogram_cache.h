#ifndef WMP_ENGINE_HISTOGRAM_CACHE_H_
#define WMP_ENGINE_HISTOGRAM_CACHE_H_

/// \file histogram_cache.h
/// Set-associative cache of workload histograms, keyed by
/// `core::WorkloadFingerprint` — the first cache level of the serving path.
///
/// Steady-state workloads (OLTP, Sibyl-style template-repetitive streams)
/// re-submit the same query sets; their histograms are identical, so the
/// featurize + template-assign front half of scoring is pure recomputation.
/// This cache lets the serving path skip it: on a hit the stored bins are
/// copied into the batch's histogram matrix bit-for-bit, which keeps
/// hit-path predictions bitwise identical to cold-path ones (the regressor
/// sees the exact same doubles).
///
/// Storage (lock shards of 8-way sets, two candidate sets per key, exact
/// LRU over a key's 16 ways), thread-safety and the model-epoch rule are
/// engine::EpochLru's (epoch_lru.h): an entry computed under a retired
/// model can never serve the new one. Use one cache per model: histograms
/// are only meaningful against the template model that produced them.
///
/// A way takes 48 bytes of the table plus its bins' vector, which the
/// way's next occupant reuses: after warm-up, inserts of one width
/// allocate nothing. The default 4,096 ways take a 192 KiB table.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/epoch_lru.h"

namespace wmp::engine {

/// \brief Thread-safe set-associative map: fingerprint -> histogram bins.
class HistogramCache {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit HistogramCache(
      CacheOptions options = {.capacity = kDefaultCapacity})
      : lru_(options) {}

  /// On hit, copies the cached histogram (exactly `len` bins) into `out`
  /// and returns true. A stored entry whose length differs from `len` is a
  /// miss and stays where it is (defensive: one cache, one model, but a
  /// mismatch must never smear a wrong-width row into the batch matrix).
  bool Lookup(uint64_t key, double* out, size_t len, uint64_t epoch = 0) {
    return lru_.LookupBatch(
               &key, 1, epoch,
               [&](size_t, const std::vector<double>& bins) {
                 if (bins.size() != len) return false;
                 std::copy(bins.begin(), bins.end(), out);
                 return true;
               }) == 1;
  }

  /// Inserts (or refreshes) `key -> histogram[0..len)` stamped with the
  /// caller's model `epoch`.
  void Insert(uint64_t key, const double* histogram, size_t len,
              uint64_t epoch = 0) {
    lru_.InsertBatch(&key, 1, epoch, [&](size_t, std::vector<double>* bins) {
      bins->assign(histogram, histogram + len);
    });
  }

  /// Drops every entry (stats counters keep accumulating).
  void Clear() { lru_.Clear(); }

  CacheStats stats() const { return lru_.stats(); }

 private:
  EpochLru<std::vector<double>> lru_;
};

}  // namespace wmp::engine

#endif  // WMP_ENGINE_HISTOGRAM_CACHE_H_
