#ifndef WMP_ENGINE_BATCH_SCORER_H_
#define WMP_ENGINE_BATCH_SCORER_H_

/// \file batch_scorer.h
/// Batched, parallel inference sessions over a trained LearnedWMP model —
/// the serving-side entry point the per-query pipeline lacked.
///
/// A `BatchScorer` wraps a `core::LearnedWmpModel` and scores whole eval
/// sets in one pass: queries are featurized into contiguous matrices,
/// template-assigned (`TemplateModel::AssignBatch`), histogrammed
/// (`core::BuildHistogramMatrix`), and regressed (`ml::Regressor::Predict`)
/// with row blocks distributed over the shared worker pool
/// (util/parallel.h). Predictions agree with the scalar
/// `PredictWorkload` loop to within 1e-9 per workload.
///
/// Threading model
///  * `ScoreWorkloads` is reentrant: the model is read const and lock-free,
///    and per-call statistics are returned by value in the
///    `BatchScoreResult` — so one scorer may be shared across threads (the
///    ScoringService shares one per shard).
///  * **RCU model hot-swap.** The scorer holds its model as a
///    `std::shared_ptr<const LearnedWmpModel>` snapshot paired with a
///    monotonically increasing *epoch*. Each ScoreWorkloads call pins the
///    (model, epoch) pair once at entry and uses it throughout — the RCU
///    read side. `PublishModel` swaps in a retrained model and bumps the
///    epoch — the write side; calls already in flight finish on the old
///    snapshot (kept alive by their pinned shared_ptr), later calls see
///    the new one, and nothing blocks on anything. The retired model frees
///    when its last in-flight call drops the reference.
///  * `BatchScorerOptions::num_threads` bounds the workers used for this
///    session's calls via a thread-local override (util::ScopedParallelism)
///    installed for the duration of each call — concurrent sessions on
///    different threads cannot race each other's budgets.
///  * **Two-level caching.** `BatchScorerOptions::cache` (borrowed)
///    short-circuits whole recurring workloads by fingerprint;
///    `BatchScorerOptions::template_cache` (borrowed) memoizes per-query
///    template ids so *novel combinations of known queries* skip
///    featurize/assign per member query. Either, both, or neither may be
///    set; the regressor sees bit-identical histogram rows on every hit
///    path, so hit predictions are bitwise equal to cold ones. Both caches
///    stamp entries with the scoring call's model epoch, so a hot-swap
///    implicitly invalidates them — stale entries can never serve the new
///    model (see epoch_lru.h). Share caches only among scorers whose
///    models are published in lockstep.
///
/// This is the layer the serving work builds on: engine::ScoringService
/// micro-batches concurrent client requests into ScoreWorkloads calls,
/// one scorer per model shard (see scoring_service.h).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/learned_wmp.h"
#include "core/workload.h"

namespace wmp::engine {

class HistogramCache;
class TemplateIdCache;

/// Session configuration for a BatchScorer.
struct BatchScorerOptions {
  /// Worker threads for this session's calls; 0 = library default (all
  /// hardware threads, or whatever util::SetDefaultParallelism chose).
  int num_threads = 0;
  /// Optional histogram cache (borrowed; must outlive the scorer). When
  /// set, ScoreWorkloads skips featurize/assign for whole-workload
  /// fingerprint hits and inserts every freshly-binned histogram.
  HistogramCache* cache = nullptr;
  /// Optional per-query template-id cache (borrowed; must outlive the
  /// scorer). When set, member queries with memoized template ids skip
  /// featurize/assign individually — the win on novel combinations of
  /// known queries, where the histogram cache cannot hit.
  TemplateIdCache* template_cache = nullptr;
};

/// Timing and throughput of one ScoreWorkloads call.
struct BatchScorerStats {
  size_t num_workloads = 0;
  size_t num_queries = 0;
  double elapsed_ms = 0.0;
  double queries_per_sec = 0.0;
  double workloads_per_sec = 0.0;
  /// Histogram-cache (level 1, per workload) outcome of this call (both 0
  /// when no cache attached).
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Template-id-cache (level 2, per query) outcome of this call. Counts
  /// only queries that reached the binning path — members of workloads the
  /// histogram cache already served never probe level 2.
  size_t template_cache_hits = 0;
  size_t template_cache_misses = 0;
};

/// What one scoring call produced: per-workload predictions (MB), in input
/// order, plus that call's own stats — returned by value so concurrent
/// callers never observe each other's numbers.
struct BatchScoreResult {
  std::vector<double> predictions;
  BatchScorerStats stats;
};

/// \brief A scoring session over one trained (hot-swappable) model.
class BatchScorer {
 public:
  /// Borrows `model`; it must outlive the scorer (or its replacement by
  /// PublishModel) and already be trained.
  explicit BatchScorer(const core::LearnedWmpModel* model,
                       BatchScorerOptions options = {});

  /// Shares ownership of `model` — the publishable form: PublishModel can
  /// later retire it safely under live calls.
  explicit BatchScorer(std::shared_ptr<const core::LearnedWmpModel> model,
                       BatchScorerOptions options = {});

  /// Loads a persisted model (LearnedWmpModel::SaveToFile) and owns it.
  static Result<BatchScorer> FromFile(const std::string& path,
                                      BatchScorerOptions options = {});

  /// Predicts the memory demand (MB) of every workload in one batched
  /// pass; one prediction per entry of `batches`, in order. Reentrant —
  /// stats come back by value.
  Result<BatchScoreResult> ScoreWorkloads(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches) const;

  /// Convenience: chops `[0, records.size())` into consecutive workloads of
  /// `batch_size` queries (the final partial workload included) and scores
  /// them all. Label fields of the implied batches are unset.
  Result<BatchScoreResult> ScoreLog(
      const std::vector<workloads::QueryRecord>& records, int batch_size) const;

  /// RCU write side: atomically installs `model` (non-null, trained) as
  /// the snapshot for all future calls and bumps the model epoch, which
  /// implicitly invalidates both attached caches' existing entries. Safe
  /// from any thread, including while ScoreWorkloads calls are in flight —
  /// those finish on the snapshot they pinned at entry.
  void PublishModel(std::shared_ptr<const core::LearnedWmpModel> model);

  /// The current model and its epoch, read together (one lock), as each
  /// scoring call pins them at entry. `model` is null only if the scorer
  /// was constructed with a null model; holding it keeps the model alive
  /// across hot-swaps. `epoch` is bumped by each PublishModel.
  struct Snapshot {
    std::shared_ptr<const core::LearnedWmpModel> model;
    uint64_t epoch = 0;
  };
  Snapshot PinSnapshot() const;

  const BatchScorerOptions& options() const { return options_; }

 private:
  // Cache-aware front half: histogram rows from the caches where
  // fingerprints hit, BinWorkloadsInto (with the per-query memo) for the
  // rest.
  Result<std::vector<double>> ScoreWithCache(
      const Snapshot& snap,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches,
      BatchScorerStats* stats) const;

  BatchScorerOptions options_;
  // Heap-held so the scorer stays movable (FromFile returns by value).
  mutable std::unique_ptr<std::mutex> model_mutex_;  // guards model_ + epoch_
  std::shared_ptr<const core::LearnedWmpModel> model_;
  uint64_t epoch_ = 0;
};

/// Consecutive (unshuffled, unlabeled) workloads of `batch_size` over
/// `num_queries` queries; the final partial workload is kept. The batching
/// used by ScoreLog and the serving benches.
std::vector<core::WorkloadBatch> MakeConsecutiveBatches(size_t num_queries,
                                                        int batch_size);

}  // namespace wmp::engine

#endif  // WMP_ENGINE_BATCH_SCORER_H_
