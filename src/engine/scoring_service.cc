#include "engine/scoring_service.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"

namespace wmp::engine {

namespace {

void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (current < value &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

ScoringService::ScoringService(
    std::vector<std::shared_ptr<const core::LearnedWmpModel>> models,
    ScoringServiceOptions options)
    : options_(options) {
  if (models.empty()) models.push_back(nullptr);  // degenerate, errors at use
  options_.max_batch = std::max<size_t>(options_.max_batch, 1);
  options_.max_delay_us = std::max<int64_t>(options_.max_delay_us, 0);
  shards_.reserve(models.size());
  for (std::shared_ptr<const core::LearnedWmpModel>& model : models) {
    auto shard = std::make_unique<Shard>();
    if (options_.cache_capacity > 0) {
      HistogramCacheOptions copt;
      copt.capacity = options_.cache_capacity;
      copt.num_shards = options_.cache_shards;
      shard->cache = std::make_unique<HistogramCache>(copt);
    }
    if (options_.template_cache_capacity > 0) {
      TemplateIdCacheOptions topt;
      topt.capacity = options_.template_cache_capacity;
      topt.num_shards = options_.cache_shards;
      shard->template_cache = std::make_unique<TemplateIdCache>(topt);
    }
    BatchScorerOptions sopt;
    sopt.num_threads = options_.num_threads;
    sopt.cache = shard->cache.get();
    sopt.template_cache = shard->template_cache.get();
    shard->scorer = std::make_unique<BatchScorer>(std::move(model), sopt);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->dispatcher =
        std::thread([this, s = shard.get()] { DispatcherLoop(s); });
  }
}

namespace {

std::vector<std::shared_ptr<const core::LearnedWmpModel>> WrapBorrowed(
    const std::vector<const core::LearnedWmpModel*>& models) {
  std::vector<std::shared_ptr<const core::LearnedWmpModel>> shared;
  shared.reserve(models.size());
  for (const core::LearnedWmpModel* model : models) {
    // Non-owning: empty control block, never deletes the borrowed model.
    shared.emplace_back(std::shared_ptr<const void>(), model);
  }
  return shared;
}

}  // namespace

ScoringService::ScoringService(
    std::vector<const core::LearnedWmpModel*> models,
    ScoringServiceOptions options)
    : ScoringService(WrapBorrowed(models), options) {}

ScoringService::ScoringService(
    std::initializer_list<const core::LearnedWmpModel*> models,
    ScoringServiceOptions options)
    : ScoringService(std::vector<const core::LearnedWmpModel*>(models),
                     options) {}

ScoringService::~ScoringService() { Stop(); }

size_t ScoringService::ShardForTenant(std::string_view tenant) const {
  return static_cast<size_t>(util::HashString(tenant) % shards_.size());
}

std::future<Result<double>> ScoringService::Submit(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    std::vector<uint32_t> query_indices) {
  return SubmitToShard(ShardForTenant(tenant), records,
                       std::move(query_indices));
}

std::future<Result<double>> ScoringService::SubmitToShard(
    size_t shard_index, const std::vector<workloads::QueryRecord>& records,
    std::vector<uint32_t> query_indices) {
  auto request = std::make_unique<Request>();
  request->records = &records;
  request->batch.query_indices = std::move(query_indices);
  request->submit_time = std::chrono::steady_clock::now();
  std::future<Result<double>> future = request->promise.get_future();
  if (shard_index >= shards_.size()) {
    request->promise.set_value(
        Status::InvalidArgument("shard index out of range"));
    return future;
  }
  // Validate at the trust boundary: downstream featurization indexes the
  // log unchecked (its callers own their batches), and one bad client
  // request must not take down the dispatcher.
  for (uint32_t qi : request->batch.query_indices) {
    if (qi >= records.size()) {
      request->promise.set_value(Status::OutOfRange(
          "workload query index outside the submitted log"));
      return future;
    }
  }
  Shard& shard = *shards_[shard_index];
  // Count before Push: the dispatcher may complete the request the moment
  // it lands, and stats() must never show completed > submitted. The
  // inflight increment must also precede Push so the adaptive controller
  // can never observe a queued request it does not count.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  shard.inflight.fetch_add(1, std::memory_order_release);
  if (!shard.queue.Push(std::move(request))) {
    // Queue closed: the service is stopping. The rejected request (and its
    // promise) is gone, so hand back a fresh, already-resolved future.
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    shard.inflight.fetch_sub(1, std::memory_order_release);
    std::promise<Result<double>> dead;
    dead.set_value(Status::FailedPrecondition("scoring service stopped"));
    return dead.get_future();
  }
  AtomicMax(&max_queue_depth_, shard.queue.size());
  return future;
}

Status ScoringService::PublishModel(
    size_t shard, std::shared_ptr<const core::LearnedWmpModel> model) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (model == nullptr) {
    return Status::InvalidArgument("cannot publish a null model");
  }
  shards_[shard]->scorer->PublishModel(std::move(model));
  models_published_.fetch_add(1, std::memory_order_relaxed);
  StartWarm(shards_[shard].get());
  return Status::OK();
}

Result<uint64_t> ScoringService::PublishAll(
    std::shared_ptr<const core::LearnedWmpModel> model,
    ModelRegistry* registry, const std::string& name) {
  // All-or-nothing = validate everything that can fail BEFORE touching any
  // shard; the per-shard swap itself is an infallible pointer exchange.
  if (model == nullptr) {
    return Status::InvalidArgument("cannot publish a null model");
  }
  if (model->templates().num_templates() <= 0) {
    return Status::FailedPrecondition(
        "cannot publish an untrained model (no templates)");
  }
  if (registry != nullptr && name.empty()) {
    return Status::InvalidArgument(
        "registry recording needs a model name");
  }
  // One rollout at a time: concurrent PublishAll/RollbackAll calls must
  // not interleave their per-shard swaps (shards could settle on
  // different artifacts) or their registry updates (the registry's
  // current entry could diverge from what the shards serve).
  std::lock_guard<std::mutex> lock(publish_all_mutex_);
  for (auto& shard : shards_) {
    shard->scorer->PublishModel(model);
  }
  models_published_.fetch_add(shards_.size(), std::memory_order_relaxed);
  uint64_t epoch = 0;
  if (registry != nullptr) {
    WMP_ASSIGN_OR_RETURN(epoch, registry->Record(name, model));
  }
  for (auto& shard : shards_) StartWarm(shard.get());
  return epoch;
}

Result<uint64_t> ScoringService::RollbackAll(ModelRegistry* registry,
                                             const std::string& name) {
  if (registry == nullptr) {
    return Status::InvalidArgument("rollback needs a registry");
  }
  // Same rollout mutex as PublishAll: the registry pop and the shard
  // swaps form one atomic rollout, so a concurrent publish either
  // happens wholly before (and is what gets rolled back) or wholly
  // after (and overrides the rollback) — never interleaved.
  std::lock_guard<std::mutex> lock(publish_all_mutex_);
  WMP_ASSIGN_OR_RETURN(RegistryEntry previous, registry->Rollback(name));
  for (auto& shard : shards_) {
    shard->scorer->PublishModel(previous.model);
  }
  models_published_.fetch_add(shards_.size(), std::memory_order_relaxed);
  for (auto& shard : shards_) StartWarm(shard.get());
  return previous.epoch;
}

void ScoringService::SetWarmCorpus(
    const std::vector<workloads::QueryRecord>* records) {
  std::shared_ptr<const WarmCorpus> corpus;
  if (records != nullptr) {
    auto built = std::make_shared<WarmCorpus>();
    built->records = records;
    built->by_fingerprint.reserve(records->size());
    for (size_t i = 0; i < records->size(); ++i) {
      const workloads::QueryRecord& r = (*records)[i];
      const uint64_t fp = r.content_fingerprint != 0
                              ? r.content_fingerprint
                              : workloads::ContentFingerprint(r);
      // First occurrence wins; duplicates share the fingerprint anyway.
      built->by_fingerprint.emplace(fp, static_cast<uint32_t>(i));
    }
    corpus = std::move(built);
  }
  std::lock_guard<std::mutex> lock(warm_corpus_mutex_);
  warm_corpus_ = std::move(corpus);
}

void ScoringService::StartWarm(Shard* shard) {
  if (!options_.warm_on_publish || shard->template_cache == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(warm_corpus_mutex_);
    if (warm_corpus_ == nullptr) return;
  }
  std::lock_guard<std::mutex> lock(shard->warm_mutex);
  // The stopped_ check must happen under warm_mutex: Stop() sets stopped_
  // BEFORE taking each shard's warm_mutex to join its warmer, so either
  // this lock precedes Stop's (and Stop joins the warmer launched here),
  // or it follows it (and the check below sees stopped_ and declines) —
  // a warmer can never outlive Stop() and read a freed warm corpus.
  if (stopped_.load(std::memory_order_relaxed)) return;
  // A previous publish's warmer notices the epoch moved on at its next
  // chunk boundary and exits, so this join is bounded by one warm_batch.
  if (shard->warmer.joinable()) shard->warmer.join();
  shard->warmer = std::thread([this, shard] { WarmShard(shard); });
}

void ScoringService::WarmShard(Shard* shard) {
  std::shared_ptr<const WarmCorpus> corpus;
  {
    std::lock_guard<std::mutex> lock(warm_corpus_mutex_);
    corpus = warm_corpus_;
  }
  if (corpus == nullptr) return;
  const std::shared_ptr<const core::LearnedWmpModel> model =
      shard->scorer->model_snapshot();
  const uint64_t epoch = shard->scorer->model_epoch();
  if (model == nullptr) return;
  // The working set to restore: everything resident right now — mostly
  // entries stamped with the retired epoch, still in the LRU because
  // invalidation is lazy. Keys unknown to the corpus are skipped (their
  // queries will re-learn on first miss as before).
  std::vector<uint64_t> keys;
  std::vector<uint32_t> indices;
  for (uint64_t key : shard->template_cache->ResidentKeys()) {
    auto it = corpus->by_fingerprint.find(key);
    if (it == corpus->by_fingerprint.end()) continue;
    keys.push_back(key);
    indices.push_back(it->second);
  }
  const size_t step = std::max<size_t>(options_.warm_batch, 1);
  uint64_t warmed = 0;
  std::vector<uint32_t> chunk;
  for (size_t begin = 0; begin < keys.size(); begin += step) {
    // Yield to shutdown, and to any newer publish: its own warmer owns the
    // new epoch, and inserting under a stale epoch would only create
    // entries the next probe lazily invalidates.
    if (stopped_.load(std::memory_order_relaxed)) break;
    if (shard->scorer->model_epoch() != epoch) break;
    const size_t end = std::min(begin + step, keys.size());
    chunk.assign(indices.begin() + static_cast<long>(begin),
                 indices.begin() + static_cast<long>(end));
    auto ids = model->AssignTemplateIds(*corpus->records, chunk, nullptr);
    if (!ids.ok()) break;  // corpus no longer featurizable under this model
    shard->template_cache->InsertBatch(keys.data() + begin, ids->data(),
                                       end - begin, epoch);
    warmed += end - begin;
  }
  if (warmed > 0) {
    template_entries_warmed_.fetch_add(warmed, std::memory_order_relaxed);
  }
}

void ScoringService::SetCompletionCallback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(completion_callback_mutex_);
  completion_callback_ = std::move(callback);
}

void ScoringService::Fulfill(Shard* shard, Request* request,
                             Result<double> outcome) {
  const auto now = std::chrono::steady_clock::now();
  const uint64_t latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          now - request->submit_time)
          .count());
  total_latency_us_.fetch_add(latency_us, std::memory_order_relaxed);
  AtomicMax(&max_latency_us_, latency_us);
  if (outcome.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  request->promise.set_value(std::move(outcome));
  // After set_value: the client may already be submitting its next request
  // on another thread; decrementing last keeps inflight an overcount, and
  // the adaptive controller errs only toward waiting (never flushes while
  // a counted arrival is still due).
  shard->inflight.fetch_sub(1, std::memory_order_release);
}

void ScoringService::Flush(Shard* shard,
                           std::vector<std::unique_ptr<Request>>* requests,
                           FlushReason reason) {
  if (requests->empty()) return;
  flushes_.fetch_add(1, std::memory_order_relaxed);
  switch (reason) {
    case FlushReason::kFull:
      flushes_full_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kAdaptive:
      flushes_adaptive_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDeadline:
      flushes_deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDrain:
      flushes_drain_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (shard->scorer->model_snapshot() == nullptr) {
    for (auto& req : *requests) {
      Fulfill(shard, req.get(),
              Status::FailedPrecondition("scoring service has no model"));
    }
    NotifyCompletion();
    return;
  }
  // Group by query-log vector: one ScoreWorkloads call per distinct log in
  // the flush (clients of one deployment share a log, so normally exactly
  // one group — the single micro-batched scoring call per shard and flush).
  std::vector<const std::vector<workloads::QueryRecord>*> logs;
  std::vector<std::vector<std::unique_ptr<Request>>> groups;
  for (auto& req : *requests) {
    size_t g = 0;
    while (g < logs.size() && logs[g] != req->records) ++g;
    if (g == logs.size()) {
      logs.push_back(req->records);
      groups.emplace_back();
    }
    groups[g].push_back(std::move(req));
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<core::WorkloadBatch> batches;
    batches.reserve(groups[g].size());
    // Move, don't copy: the requests no longer need their index lists, and
    // the rare rescore path below reads batches[m] (still in scope).
    for (auto& req : groups[g]) batches.push_back(std::move(req->batch));
    auto result = shard->scorer->ScoreWorkloads(*logs[g], batches);
    if (result.ok()) {
      cache_hits_.fetch_add(result->stats.cache_hits,
                            std::memory_order_relaxed);
      cache_misses_.fetch_add(result->stats.cache_misses,
                              std::memory_order_relaxed);
      template_cache_hits_.fetch_add(result->stats.template_cache_hits,
                                     std::memory_order_relaxed);
      template_cache_misses_.fetch_add(result->stats.template_cache_misses,
                                       std::memory_order_relaxed);
      for (size_t m = 0; m < groups[g].size(); ++m) {
        Fulfill(shard, groups[g][m].get(), result->predictions[m]);
      }
    } else {
      // Batch-level failure (e.g. one empty workload fails a
      // variable-length model's whole histogram pass, or the model itself
      // errors): isolate it by rescoring one by one so only the offending
      // futures carry the error. The rescore's cache lookups are NOT
      // counted: they would re-hit histograms the failed attempt just
      // inserted and report a bogus 100% hit rate for a cold flush (and an
      // errored call returns no stats to forward), so failed flushes
      // simply contribute nothing to the cache counters.
      for (size_t m = 0; m < groups[g].size(); ++m) {
        auto one = shard->scorer->ScoreWorkloads(*logs[g], {batches[m]});
        if (one.ok()) {
          Fulfill(shard, groups[g][m].get(), one->predictions.front());
        } else {
          Fulfill(shard, groups[g][m].get(), one.status());
        }
      }
    }
  }
  // One doorbell per flush, after every promise of the flush is set — a
  // parked consumer wakes once and finds the whole batch ready.
  NotifyCompletion();
}

void ScoringService::NotifyCompletion() {
  // Runs under the lock, so once SetCompletionCallback(nullptr) returns no
  // dispatcher is still inside the old callback: the reactor closes the
  // wakeup fd its callback writes right after unregistering.
  std::lock_guard<std::mutex> lock(completion_callback_mutex_);
  if (completion_callback_) completion_callback_();
}

void ScoringService::DispatcherLoop(Shard* shard) {
  std::vector<std::unique_ptr<Request>> batch;
  for (;;) {
    batch.clear();
    if (shard->queue.WaitNonEmpty() == util::QueueWait::kClosed) break;
    // Collect until the flush fills, its delay budget runs out, or (the
    // adaptive controller) no further arrival can be pending. The budget
    // starts at first arrival, so an idle service adds no latency to a
    // lone request beyond one max_delay_us window — and with adaptive
    // flushing, not even that.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(options_.max_delay_us);
    shard->queue.PopSome(options_.max_batch, &batch);
    FlushReason reason = FlushReason::kFull;
    while (batch.size() < options_.max_batch) {
      // Every submitted-but-unfulfilled request is already in hand and the
      // queue is empty: closed-loop clients are all blocked on this very
      // flush, so the delay window can only add latency, never batching.
      // (inflight is incremented before Push, so a racing Submit is seen
      // here before its request is even visible in the queue — the check
      // errs only toward waiting.)
      if (options_.adaptive_flush &&
          shard->inflight.load(std::memory_order_acquire) <= batch.size() &&
          shard->queue.size() == 0) {
        reason = FlushReason::kAdaptive;
        break;
      }
      const util::QueueWait wait = shard->queue.WaitNonEmptyUntil(deadline);
      if (wait == util::QueueWait::kTimeout) {
        reason = FlushReason::kDeadline;
        break;
      }
      if (wait == util::QueueWait::kClosed) {
        reason = FlushReason::kDrain;
        break;
      }
      shard->queue.PopSome(options_.max_batch - batch.size(), &batch);
    }
    Flush(shard, &batch, reason);
  }
  // Closed: drain whatever raced in before Close and score it.
  batch.clear();
  while (shard->queue.PopSome(options_.max_batch, &batch) > 0) {
    Flush(shard, &batch, FlushReason::kDrain);
    batch.clear();
  }
}

void ScoringService::Stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stopped_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->dispatcher.joinable()) shard->dispatcher.join();
  }
  // Background warmers see stopped_ at their next chunk boundary; reap
  // them so no thread outlives the service.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> warm_lock(shard->warm_mutex);
    if (shard->warmer.joinable()) shard->warmer.join();
  }
}

ServiceStats ScoringService::stats() const {
  ServiceStats st;
  st.submitted = submitted_.load(std::memory_order_relaxed);
  st.completed = completed_.load(std::memory_order_relaxed);
  st.failed = failed_.load(std::memory_order_relaxed);
  st.flushes = flushes_.load(std::memory_order_relaxed);
  st.flushes_full = flushes_full_.load(std::memory_order_relaxed);
  st.flushes_adaptive = flushes_adaptive_.load(std::memory_order_relaxed);
  st.flushes_deadline = flushes_deadline_.load(std::memory_order_relaxed);
  st.flushes_drain = flushes_drain_.load(std::memory_order_relaxed);
  st.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  st.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  st.template_cache_hits =
      template_cache_hits_.load(std::memory_order_relaxed);
  st.template_cache_misses =
      template_cache_misses_.load(std::memory_order_relaxed);
  st.models_published = models_published_.load(std::memory_order_relaxed);
  st.template_entries_warmed =
      template_entries_warmed_.load(std::memory_order_relaxed);
  st.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  st.total_latency_us = total_latency_us_.load(std::memory_order_relaxed);
  st.max_latency_us = max_latency_us_.load(std::memory_order_relaxed);
  uint64_t depth = 0;
  for (const auto& shard : shards_) depth += shard->queue.size();
  st.queue_depth = depth;
  return st;
}

}  // namespace wmp::engine
