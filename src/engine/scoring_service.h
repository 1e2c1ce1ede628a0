#ifndef WMP_ENGINE_SCORING_SERVICE_H_
#define WMP_ENGINE_SCORING_SERVICE_H_

/// \file scoring_service.h
/// Asynchronous, sharded scoring service: the serving layer between
/// concurrent clients (a DBMS admission controller, the paper's §I
/// deployment story) and the batched inference path (engine::BatchScorer).
///
/// Architecture
///
///     clients ──Submit()──▶ router ──▶ per-shard MPSC queue ──▶ dispatcher
///                                                                   │
///                          future ◀── promise ◀── BatchScorer ◀─────┘
///                               (histogram + template-id caches in front)
///
///  * **Async submission.** `Submit` enqueues one workload and returns a
///    `std::future<Result<double>>` immediately; clients overlap their own
///    work (or thousands of peers) with scoring.
///  * **Sharded scoring.** The service hosts one trained model per shard —
///    per tenant, per benchmark, or replicas of one model — with a
///    dedicated dispatcher thread and `BatchScorer` each. The router hashes
///    the tenant/model key to a shard, so multiple models serve
///    concurrently. Dispatchers issue their parallel work through the
///    process-wide util/parallel.h pool, so shards share worker threads
///    instead of oversubscribing cores.
///  * **Adaptive cross-client micro-batching.** A dispatcher drains its
///    queue into one flush when `max_batch` workloads are pending, when
///    `max_delay_us` has elapsed since the flush began collecting — or,
///    with `adaptive_flush` (default), the moment every
///    submitted-but-unfulfilled request of the shard is already in hand:
///    then no further arrival can be pending (closed-loop clients are all
///    blocked on this very flush), so waiting out the delay window would be
///    pure added latency. Open-loop clients keep deep queues and still
///    flush full batches; `ServiceStats` counts each flush's trigger so
///    the controller's behavior is observable.
///  * **Two-level caching.** Each shard owns a sharded-LRU
///    `engine::HistogramCache` (whole workloads, keyed by
///    `core::WorkloadFingerprint`) and a `engine::TemplateIdCache`
///    (per-query template ids, keyed by content fingerprint) — so exact
///    workload repeats skip the entire front half, and *novel combinations
///    of known queries* skip featurize/assign per member query. Hit-path
///    predictions are bitwise identical to cold-path ones.
///  * **RCU model hot-swap.** Shards hold their model as a
///    `std::shared_ptr<const LearnedWmpModel>` snapshot; `PublishModel`
///    installs a retrained replacement atomically between flushes while
///    traffic keeps flowing — in-flight flushes finish on the snapshot they
///    pinned, and both caches version on model epoch so a stale entry can
///    never serve the new model's predictions. `wmpctl train --publish`
///    exercises the full retrain-and-swap loop. `PublishAll` is the
///    coordinated form — one artifact swapped across every shard
///    all-or-nothing, recorded in an engine::ModelRegistry for rollback —
///    and with a warm corpus registered (`SetWarmCorpus`) each swap
///    re-assigns the template cache's resident keys under the new model in
///    the background, so steady-state traffic does not pay a full miss
///    pass after a rollout (warmed entries counted in `ServiceStats`).
///  * **Clean shutdown.** `Stop` (or the destructor) closes the queues,
///    scores everything already accepted, fulfills every promise, and joins
///    the dispatchers — no future is ever abandoned. Submissions after Stop
///    resolve immediately with FailedPrecondition.
///  * **Failure isolation.** Requests are validated at the Submit trust
///    boundary (query indices must lie inside the submitted log — the
///    featurizers index it unchecked). If a flush still fails as a batch
///    (e.g. an empty workload poisons a variable-length model's histogram
///    pass), the dispatcher rescores that flush request-by-request so only
///    the offending futures carry the error.
///
/// Thread-safety: `Submit`/`SubmitToShard`/`PublishModel`/`stats` are safe
/// from any number of threads for the service's whole lifetime.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/learned_wmp.h"
#include "core/workload.h"
#include "engine/batch_scorer.h"
#include "engine/histogram_cache.h"
#include "engine/model_registry.h"
#include "engine/template_cache.h"
#include "util/mpsc_queue.h"

namespace wmp::engine {

/// Serving knobs. Defaults favor throughput under concurrency while
/// keeping worst-case added latency at a fraction of a typical flush.
struct ScoringServiceOptions {
  /// Flush a shard's pending requests once this many are collected.
  size_t max_batch = 64;
  /// ... or once this many microseconds passed since the flush started
  /// collecting, whichever comes first.
  int64_t max_delay_us = 200;
  /// ... or as soon as no further arrival can be pending (every submitted
  /// request of the shard is already collected) — the adaptive controller
  /// that spares closed-loop clients the fixed delay window.
  bool adaptive_flush = true;
  /// Histogram-cache entries per shard; 0 disables level-1 caching.
  size_t cache_capacity = 4096;
  /// Template-id-cache entries per shard; 0 disables level-2 caching.
  size_t template_cache_capacity = 1 << 16;
  /// Lock shards inside each per-shard cache (both levels).
  size_t cache_shards = 8;
  /// Worker-pool budget for each dispatcher's scoring calls; 0 = library
  /// default. Shards share the process-wide pool either way.
  int num_threads = 0;
  /// Re-warm each shard's template-id cache in the background after a
  /// PublishModel/PublishAll hot-swap (requires SetWarmCorpus; see below).
  /// Off, a swap costs one full miss pass over the working set at p99.
  bool warm_on_publish = true;
  /// Queries re-assigned per warming step — bounds how long one background
  /// chunk monopolizes the worker pool, and how stale a warm can get
  /// before noticing a newer publish and yielding to it.
  size_t warm_batch = 512;
};

/// Point-in-time service counters (monotonic except queue_depth).
struct ServiceStats {
  uint64_t submitted = 0;   ///< requests accepted into a queue
  uint64_t completed = 0;   ///< futures fulfilled with a prediction
  uint64_t failed = 0;      ///< futures fulfilled with an error
  uint64_t flushes = 0;     ///< dispatcher scoring cycles
  /// Why each flush fired (flushes == sum of the four):
  uint64_t flushes_full = 0;      ///< collected max_batch requests
  uint64_t flushes_adaptive = 0;  ///< no further arrival could be pending
  uint64_t flushes_deadline = 0;  ///< waited out the max_delay_us window
  uint64_t flushes_drain = 0;     ///< shutdown drain after Close
  uint64_t cache_hits = 0;    ///< level 1: whole-workload histogram cache
  uint64_t cache_misses = 0;
  uint64_t template_cache_hits = 0;  ///< level 2: per-query template ids
  uint64_t template_cache_misses = 0;
  uint64_t models_published = 0;  ///< per-shard hot-swaps (PublishAll adds
                                  ///< one per shard it republished)
  /// Template-cache entries re-assigned under a new model epoch by the
  /// post-publish background warmer.
  uint64_t template_entries_warmed = 0;
  uint64_t max_queue_depth = 0;  ///< high-water mark of any shard queue
  uint64_t queue_depth = 0;      ///< currently pending across shards
  uint64_t total_latency_us = 0; ///< sum of submit→fulfill times
  uint64_t max_latency_us = 0;
  /// Retired: always 0, since template assignment keeps no counters. The
  /// fields hold their stats-frame slots (18–21) only because perfbench
  /// still reads them.
  uint64_t assign_rows = 0;
  uint64_t assign_bound_skips = 0;
  uint64_t assign_early_exits = 0;
  uint64_t assign_full_distances = 0;

  double avg_batch() const {
    return flushes > 0 ? static_cast<double>(completed + failed) /
                             static_cast<double>(flushes)
                       : 0.0;
  }
  double avg_latency_us() const {
    const uint64_t n = completed + failed;
    return n > 0 ? static_cast<double>(total_latency_us) /
                       static_cast<double>(n)
                 : 0.0;
  }
  double cache_hit_rate() const {
    const uint64_t n = cache_hits + cache_misses;
    return n > 0 ? static_cast<double>(cache_hits) / static_cast<double>(n)
                 : 0.0;
  }
  double template_cache_hit_rate() const {
    const uint64_t n = template_cache_hits + template_cache_misses;
    return n > 0 ? static_cast<double>(template_cache_hits) /
                       static_cast<double>(n)
                 : 0.0;
  }
};

/// \brief Async sharded scoring front end over one or more trained models.
class ScoringService {
 public:
  /// One shard per entry of `models` (at least one): distinct per-tenant
  /// models, or the same model repeated to spread one model's dispatch
  /// over several queues. Shared ownership is the publishable form —
  /// PublishModel can retire any of them under live traffic.
  explicit ScoringService(
      std::vector<std::shared_ptr<const core::LearnedWmpModel>> models,
      ScoringServiceOptions options = {});

  /// Borrowing overload for callers that own their models for the whole
  /// service lifetime (models must be trained and outlive the service —
  /// and outlive any PublishModel that retires them).
  explicit ScoringService(std::vector<const core::LearnedWmpModel*> models,
                          ScoringServiceOptions options = {});

  /// Braced-list convenience for the borrowing form —
  /// `ScoringService({&m1, &m2})` — which would otherwise be ambiguous
  /// between the two vector overloads.
  ScoringService(std::initializer_list<const core::LearnedWmpModel*> models,
                 ScoringServiceOptions options = {});
  ~ScoringService();
  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Enqueues one workload (member rows of `records`) for the shard
  /// `ShardForTenant(tenant)` and returns a future for its predicted
  /// memory demand (MB). `records` is borrowed and must stay alive and
  /// unmodified until the future resolves.
  std::future<Result<double>> Submit(
      std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      std::vector<uint32_t> query_indices);

  /// Same, addressed straight to a shard (callers that already routed).
  std::future<Result<double>> SubmitToShard(
      size_t shard, const std::vector<workloads::QueryRecord>& records,
      std::vector<uint32_t> query_indices);

  /// RCU hot-swap: installs `model` (non-null, trained) as shard `shard`'s
  /// serving snapshot without pausing traffic. Requests in the flush under
  /// way score on the old snapshot; every later flush scores on the new
  /// one, with both cache levels implicitly invalidated by the epoch bump.
  /// Safe from any thread, any time — including under full client load.
  Status PublishModel(size_t shard,
                      std::shared_ptr<const core::LearnedWmpModel> model);

  /// Coordinated rollout: atomically installs `model` as the serving
  /// snapshot of EVERY shard — the publish a tenant whose replicas share
  /// one model actually wants, where PublishModel is the single-shard
  /// primitive. All-or-nothing: the artifact is validated up front
  /// (non-null, trained) and concurrent PublishAll calls serialize on one
  /// publish mutex, so readers can race the swap shard-by-shard (that is
  /// RCU as usual) but can never observe shards pinned to two *different
  /// rollouts* once both publishes return. With a `registry`, the artifact
  /// is additionally recorded as the new current epoch of `name`; the
  /// returned value is that registry epoch (0 when no registry is given).
  /// After the swap each shard's template-id cache re-warms in the
  /// background (see SetWarmCorpus).
  Result<uint64_t> PublishAll(
      std::shared_ptr<const core::LearnedWmpModel> model,
      ModelRegistry* registry = nullptr, const std::string& name = {});

  /// Coordinated rollback: pops `name`'s current registry epoch and
  /// re-publishes the previous one across every shard. The registry pop
  /// and the shard swap happen under the same rollout mutex as
  /// PublishAll, so a racing publish and rollback serialize as two whole
  /// rollouts — the shards and the registry's current entry can never
  /// disagree. Returns the restored registry epoch.
  Result<uint64_t> RollbackAll(ModelRegistry* registry,
                               const std::string& name);

  /// Registers the query log the background cache warmer re-assigns after
  /// a hot-swap: resident template-cache keys are matched to these records
  /// by content fingerprint and re-assigned under the new model in bounded
  /// batches, so a swap no longer costs a full miss pass at p99. `records`
  /// is borrowed and must stay alive and unmodified until the service
  /// stops or the corpus is replaced (nullptr disables warming).
  void SetWarmCorpus(const std::vector<workloads::QueryRecord>* records);

  /// Registers `callback` to run on the dispatching thread after each
  /// flush has fulfilled its promises (nullptr unregisters). This is the
  /// "futures may be ready" doorbell for non-blocking consumers: the
  /// event-loop net::ReactorServer parks Submit futures and must not block
  /// a thread in get(), so it registers a callback that writes its wakeup
  /// fd and drains completed futures from the loop. The callback must be
  /// cheap and must not call back into the service. Once this returns, no
  /// thread is still running the previous callback.
  void SetCompletionCallback(std::function<void()> callback);

  /// Stable tenant/model-key router: util::HashString(tenant) mod shards.
  size_t ShardForTenant(std::string_view tenant) const;

  /// Closes the queues, scores everything accepted, joins the dispatchers.
  /// Idempotent; also run by the destructor.
  void Stop();

  ServiceStats stats() const;
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }
  size_t num_shards() const { return shards_.size(); }
  /// Shard's current model snapshot; holding it keeps the model alive
  /// across hot-swaps (may be null only for the degenerate no-model
  /// service).
  std::shared_ptr<const core::LearnedWmpModel> model(size_t shard) const {
    return shards_[shard]->scorer->model_snapshot();
  }

 private:
  struct Request {
    const std::vector<workloads::QueryRecord>* records;
    core::WorkloadBatch batch;
    std::promise<Result<double>> promise;
    std::chrono::steady_clock::time_point submit_time;
  };
  struct Shard {
    std::unique_ptr<HistogramCache> cache;          // null when disabled
    std::unique_ptr<TemplateIdCache> template_cache;  // null when disabled
    std::unique_ptr<BatchScorer> scorer;
    util::MpscQueue<std::unique_ptr<Request>> queue;
    /// Submitted-but-unfulfilled requests — the adaptive controller's
    /// signal. Incremented before Push, decremented as each promise is
    /// fulfilled, so `inflight <= collected batch` proves no further
    /// arrival can be pending.
    std::atomic<uint64_t> inflight{0};
    std::thread dispatcher;
    /// Post-publish template-cache warmer. At most one per shard; a newer
    /// publish joins the stale warmer (it aborts at its next chunk
    /// boundary via the epoch check) before starting its own.
    std::thread warmer;
    std::mutex warm_mutex;
  };
  /// What ended a flush's collection phase (ServiceStats counters).
  enum class FlushReason { kFull, kAdaptive, kDeadline, kDrain };

  /// Fingerprint-indexed view of the warm corpus, snapshotted by warmers
  /// so SetWarmCorpus can swap it mid-warm without a data race.
  struct WarmCorpus {
    const std::vector<workloads::QueryRecord>* records = nullptr;
    std::unordered_map<uint64_t, uint32_t> by_fingerprint;
  };

  void DispatcherLoop(Shard* shard);
  void Flush(Shard* shard, std::vector<std::unique_ptr<Request>>* requests,
             FlushReason reason);
  void Fulfill(Shard* shard, Request* request, Result<double> outcome);
  /// Runs the registered completion callback (if any) after a flush.
  void NotifyCompletion();
  /// Launches the background warmer for `shard` (joins a stale one first).
  /// No-op without a corpus, a template cache, or warm_on_publish.
  void StartWarm(Shard* shard);
  void WarmShard(Shard* shard);

  ScoringServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex stop_mutex_;  // serializes Stop vs destructor
  std::atomic<bool> stopped_{false};
  std::mutex publish_all_mutex_;  // serializes cross-shard rollouts
  mutable std::mutex warm_corpus_mutex_;
  std::shared_ptr<const WarmCorpus> warm_corpus_;
  /// Invoked under its mutex: unregistering waits out a running callback.
  mutable std::mutex completion_callback_mutex_;
  std::function<void()> completion_callback_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> flushes_full_{0};
  std::atomic<uint64_t> flushes_adaptive_{0};
  std::atomic<uint64_t> flushes_deadline_{0};
  std::atomic<uint64_t> flushes_drain_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> template_cache_hits_{0};
  std::atomic<uint64_t> template_cache_misses_{0};
  std::atomic<uint64_t> models_published_{0};
  std::atomic<uint64_t> template_entries_warmed_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
  std::atomic<uint64_t> total_latency_us_{0};
  std::atomic<uint64_t> max_latency_us_{0};
};

}  // namespace wmp::engine

#endif  // WMP_ENGINE_SCORING_SERVICE_H_
