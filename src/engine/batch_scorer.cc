#include "engine/batch_scorer.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "core/histogram.h"
#include "engine/histogram_cache.h"
#include "engine/template_cache.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace wmp::engine {

BatchScorer::BatchScorer(const core::LearnedWmpModel* model,
                         BatchScorerOptions options)
    : options_(options),
      model_mutex_(std::make_unique<std::mutex>()),
      // Non-owning: empty control block, never deletes the borrowed model.
      model_(std::shared_ptr<const void>(), model) {}

BatchScorer::BatchScorer(std::shared_ptr<const core::LearnedWmpModel> model,
                         BatchScorerOptions options)
    : options_(options),
      model_mutex_(std::make_unique<std::mutex>()),
      model_(std::move(model)) {}

Result<BatchScorer> BatchScorer::FromFile(const std::string& path,
                                          BatchScorerOptions options) {
  WMP_ASSIGN_OR_RETURN(core::LearnedWmpModel model,
                       core::LearnedWmpModel::LoadFromFile(path));
  return BatchScorer(
      std::make_shared<const core::LearnedWmpModel>(std::move(model)),
      options);
}

void BatchScorer::PublishModel(
    std::shared_ptr<const core::LearnedWmpModel> model) {
  if (model == nullptr) return;  // a scorer never goes back to model-less
  // The retired snapshot's shared_ptr drops outside the lock: if this is
  // the last reference, the old model's destructor must not run under the
  // mutex that in-flight pinners are about to take.
  std::shared_ptr<const core::LearnedWmpModel> retired;
  {
    std::lock_guard<std::mutex> lock(*model_mutex_);
    retired = std::move(model_);
    model_ = std::move(model);
    ++epoch_;  // implicitly invalidates both caches' entries
  }
}

BatchScorer::Snapshot BatchScorer::PinSnapshot() const {
  std::lock_guard<std::mutex> lock(*model_mutex_);
  return Snapshot{model_, epoch_};
}

Result<std::vector<double>> BatchScorer::ScoreWithCache(
    const Snapshot& snap, const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches,
    BatchScorerStats* stats) const {
  const core::LearnedWmpModel& model = *snap.model;
  const size_t k = static_cast<size_t>(model.templates().num_templates());
  ml::Matrix h(batches.size(), k);
  // Level 1 — whole-workload histograms by fingerprint.
  std::vector<uint64_t> keys;
  std::vector<size_t> miss_rows;
  if (options_.cache != nullptr) {
    // Fingerprinting combines every member query's fingerprint; a large
    // flush spreads it over the worker pool, sized by member queries so a
    // flush of few-but-large workloads (batch-1000 streams) still spreads
    // and a small frame stays on the dispatcher.
    size_t num_queries = 0;
    for (const core::WorkloadBatch& b : batches) {
      num_queries += b.query_indices.size();
    }
    keys.resize(batches.size());
    const size_t grain = util::GrainForWork(batches.size(), num_queries,
                                            core::kQueriesPerChunk);
    util::ParallelFor(batches.size(), grain, [&](size_t begin, size_t end) {
      for (size_t w = begin; w < end; ++w) {
        keys[w] = core::WorkloadFingerprint(records, batches[w].query_indices);
      }
    });
    for (size_t w = 0; w < batches.size(); ++w) {
      if (options_.cache->Lookup(keys[w], h.RowPtr(w), k, snap.epoch)) {
        ++stats->cache_hits;
      } else {
        ++stats->cache_misses;
        miss_rows.push_back(w);
      }
    }
  } else {
    miss_rows.resize(batches.size());
    std::iota(miss_rows.begin(), miss_rows.end(), size_t{0});
  }
  if (!miss_rows.empty()) {
    // Level 2 — per-query template ids by content fingerprint, threaded
    // through the binning path's resolve/featurize-misses/backfill split.
    // The view pins this call's epoch so everything resolved and learned
    // is stamped against the pinned model snapshot.
    std::optional<TemplateIdCache::View> view;
    core::TemplateIdResolver* resolver = nullptr;
    if (options_.template_cache != nullptr) {
      view.emplace(options_.template_cache, snap.epoch);
      resolver = &*view;
    }
    WMP_RETURN_IF_ERROR(
        model.BinWorkloadsInto(records, batches, miss_rows, &h, resolver));
    if (view.has_value()) {
      stats->template_cache_hits += view->hits();
      stats->template_cache_misses += view->misses();
    }
    if (options_.cache != nullptr) {
      for (size_t w : miss_rows) {
        options_.cache->Insert(keys[w], h.RowPtr(w), k, snap.epoch);
      }
    }
  }
  return model.PredictFromHistogramMatrix(std::move(h));
}

Result<BatchScoreResult> BatchScorer::ScoreWorkloads(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) const {
  util::ScopedParallelism scope(options_.num_threads);
  // RCU read side: pin the (model, epoch) pair once; a concurrent
  // PublishModel retires the old snapshot without disturbing this call.
  const Snapshot snap = PinSnapshot();
  if (snap.model == nullptr) {
    return Status::FailedPrecondition("BatchScorer has no model");
  }
  BatchScoreResult result;
  Stopwatch sw;
  if ((options_.cache != nullptr || options_.template_cache != nullptr) &&
      !batches.empty()) {
    WMP_ASSIGN_OR_RETURN(result.predictions,
                         ScoreWithCache(snap, records, batches, &result.stats));
  } else {
    WMP_ASSIGN_OR_RETURN(result.predictions,
                         snap.model->PredictWorkloads(records, batches));
  }
  const double elapsed_ms = sw.ElapsedMillis();

  size_t num_queries = 0;
  for (const core::WorkloadBatch& b : batches) {
    num_queries += b.query_indices.size();
  }
  result.stats.num_workloads = batches.size();
  result.stats.num_queries = num_queries;
  result.stats.elapsed_ms = elapsed_ms;
  const double elapsed_s = elapsed_ms / 1e3;
  result.stats.queries_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(num_queries) / elapsed_s : 0.0;
  result.stats.workloads_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(batches.size()) / elapsed_s : 0.0;
  return result;
}

Result<BatchScoreResult> BatchScorer::ScoreLog(
    const std::vector<workloads::QueryRecord>& records, int batch_size) const {
  if (batch_size < 1) {
    return Status::InvalidArgument("ScoreLog batch_size must be >= 1");
  }
  return ScoreWorkloads(records,
                        MakeConsecutiveBatches(records.size(), batch_size));
}

std::vector<core::WorkloadBatch> MakeConsecutiveBatches(size_t num_queries,
                                                        int batch_size) {
  std::vector<core::WorkloadBatch> batches;
  if (batch_size < 1) return batches;
  const size_t s = static_cast<size_t>(batch_size);
  batches.reserve((num_queries + s - 1) / s);
  for (size_t begin = 0; begin < num_queries; begin += s) {
    core::WorkloadBatch batch;
    const size_t end = std::min(begin + s, num_queries);
    batch.query_indices.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      batch.query_indices.push_back(static_cast<uint32_t>(i));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace wmp::engine
