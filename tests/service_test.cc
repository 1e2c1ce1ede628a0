// Concurrency tests for the async serving layer: util::MpscQueue wiring,
// engine::HistogramCache, and engine::ScoringService — many client threads
// hammering Submit() against multi-shard services. The core properties:
// every future resolves, async predictions equal the scalar path within
// 1e-9, and cache hits are bitwise identical to cold scores.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "core/workload.h"
#include "engine/histogram_cache.h"
#include "engine/scoring_service.h"
#include "engine/template_cache.h"
#include "util/sync.h"
#include "util/timer.h"
#include "workloads/dataset.h"

namespace wmp {
namespace {

// ---------- Workload fingerprints ----------

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::DatasetOptions opt;
    opt.num_queries = 400;
    opt.seed = 71;
    auto d = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    dataset_ = new workloads::Dataset(std::move(*d));
    indices_ = new std::vector<uint32_t>(
        core::AllIndices(dataset_->records.size()));

    core::LearnedWmpOptions lopt;
    lopt.templates.num_templates = 8;
    lopt.regressor = ml::RegressorKind::kGbt;
    auto model = core::LearnedWmpModel::Train(dataset_->records, *indices_,
                                              *dataset_->generator, lopt);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new core::LearnedWmpModel(std::move(*model));

    core::LearnedWmpOptions lopt2 = lopt;
    lopt2.regressor = ml::RegressorKind::kRidge;
    auto model2 = core::LearnedWmpModel::Train(dataset_->records, *indices_,
                                               *dataset_->generator, lopt2);
    ASSERT_TRUE(model2.ok()) << model2.status().ToString();
    model2_ = new core::LearnedWmpModel(std::move(*model2));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete indices_;
    delete model_;
    delete model2_;
    dataset_ = nullptr;
    indices_ = nullptr;
    model_ = nullptr;
    model2_ = nullptr;
  }

  static std::vector<uint32_t> Workload(size_t start, size_t size) {
    std::vector<uint32_t> w;
    for (size_t q = 0; q < size; ++q) {
      w.push_back(static_cast<uint32_t>((start + q) % dataset_->records.size()));
    }
    return w;
  }

  /// Non-owning shared_ptr over a suite-lifetime model — the borrow form
  /// PublishModel takes in tests.
  static std::shared_ptr<const core::LearnedWmpModel> Borrow(
      const core::LearnedWmpModel* model) {
    return {std::shared_ptr<const void>(), model};
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
  static core::LearnedWmpModel* model_;
  static core::LearnedWmpModel* model2_;
};

workloads::Dataset* ServiceTest::dataset_ = nullptr;
std::vector<uint32_t>* ServiceTest::indices_ = nullptr;
core::LearnedWmpModel* ServiceTest::model_ = nullptr;
core::LearnedWmpModel* ServiceTest::model2_ = nullptr;

TEST_F(ServiceTest, WorkloadFingerprintIsOrderInvariantAndContentSensitive) {
  const std::vector<uint32_t> a = {0, 1, 2, 3};
  const std::vector<uint32_t> a_shuffled = {3, 1, 0, 2};
  const std::vector<uint32_t> b = {0, 1, 2, 4};
  const std::vector<uint32_t> a_dup = {0, 1, 2, 3, 3};
  const auto& r = dataset_->records;
  EXPECT_EQ(core::WorkloadFingerprint(r, a),
            core::WorkloadFingerprint(r, a_shuffled));
  EXPECT_NE(core::WorkloadFingerprint(r, a), core::WorkloadFingerprint(r, b));
  EXPECT_NE(core::WorkloadFingerprint(r, a),
            core::WorkloadFingerprint(r, a_dup));
  EXPECT_NE(core::WorkloadFingerprint(r, {}), 0u);
}

// ---------- HistogramCache ----------

TEST(HistogramCacheTest, LookupInsertEvictLru) {
  engine::HistogramCache cache({.capacity = 2, .num_shards = 1});
  const double h1[] = {1.0, 2.0};
  const double h2[] = {3.0, 4.0};
  const double h3[] = {5.0, 6.0};
  double out[2] = {0, 0};
  EXPECT_FALSE(cache.Lookup(1, out, 2));
  cache.Insert(1, h1, 2);
  cache.Insert(2, h2, 2);
  ASSERT_TRUE(cache.Lookup(1, out, 2));  // refreshes key 1
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 2.0);
  cache.Insert(3, h3, 2);  // evicts key 2 (LRU)
  EXPECT_FALSE(cache.Lookup(2, out, 2));
  EXPECT_TRUE(cache.Lookup(1, out, 2));
  EXPECT_TRUE(cache.Lookup(3, out, 2));
  const auto st = cache.stats();
  EXPECT_EQ(st.size, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.insertions, 3u);
  // Width mismatch is a miss, never a smeared row.
  double wide[3] = {0, 0, 0};
  EXPECT_FALSE(cache.Lookup(1, wide, 3));
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_FALSE(cache.Lookup(1, out, 2));
}

TEST(HistogramCacheTest, EpochMismatchInvalidatesEntries) {
  engine::HistogramCache cache({.capacity = 8, .num_shards = 1});
  const double h[] = {1.0, 2.0};
  double out[2] = {0, 0};
  cache.Insert(1, h, 2, /*epoch=*/0);
  ASSERT_TRUE(cache.Lookup(1, out, 2, /*epoch=*/0));
  // A hot-swapped model probes under the next epoch: the stale entry must
  // miss and be erased, never smearing the old model's histogram in.
  EXPECT_FALSE(cache.Lookup(1, out, 2, /*epoch=*/1));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().size, 0u);
  // Re-inserted under the new epoch it serves again...
  cache.Insert(1, h, 2, /*epoch=*/1);
  EXPECT_TRUE(cache.Lookup(1, out, 2, /*epoch=*/1));
  // ... and a straggling old-epoch flush (pinned to the retired snapshot)
  // neither clobbers the new entry with its insert nor evicts it with its
  // probe — it just misses.
  cache.Insert(1, h, 2, /*epoch=*/0);
  EXPECT_FALSE(cache.Lookup(1, out, 2, /*epoch=*/0));
  EXPECT_TRUE(cache.Lookup(1, out, 2, /*epoch=*/1));
}

TEST(HistogramCacheTest, ZeroCapacityNeverStores) {
  engine::HistogramCache cache({.capacity = 0});
  const double h[] = {1.0};
  double out[1];
  cache.Insert(7, h, 1);
  EXPECT_FALSE(cache.Lookup(7, out, 1));
  EXPECT_EQ(cache.stats().size, 0u);
}

// Hit/miss/evict/invalidate races through the width-checking adapter:
// concurrent probes and inserts (with epoch churn) must stay internally
// consistent — a hit's bins always match its key's ground truth for the
// epoch probed.
TEST(HistogramCacheTest, ConcurrentMixedUseIsSafe) {
  engine::HistogramCache cache({.capacity = 64, .num_shards = 4});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      double out[4];
      for (uint64_t i = 0; i < 2000; ++i) {
        const uint64_t epoch = i * 3 / 2000;  // three epochs per thread
        const uint64_t key = (i * 2654435761u + static_cast<uint64_t>(t)) % 128;
        // Ground truth: the bins a key maps to under an epoch.
        const double bins[4] = {static_cast<double>(key),
                                static_cast<double>(epoch), 2, 3};
        if (i % 3 == 0) {
          cache.Insert(key, bins, 4, epoch);
        } else if (cache.Lookup(key, out, 4, epoch)) {
          if (!std::equal(out, out + 4, bins)) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  const auto st = cache.stats();
  EXPECT_LE(st.size, 64u + 4u);  // per-shard rounding slack
  EXPECT_GT(st.hits + st.misses, 0u);
}

// ---------- TemplateIdCache ----------

TEST(TemplateIdCacheTest, LookupInsertEvictAndEpochInvalidate) {
  engine::TemplateIdCache cache({.capacity = 2, .num_shards = 1});
  const uint64_t keys[] = {1, 2, 3};
  const int ids[] = {10, 20, 30};
  int got[3] = {-1, -1, -1};
  uint8_t hit[3] = {9, 9, 9};
  EXPECT_EQ(cache.LookupBatch(keys, 3, 0, got, hit), 0u);
  EXPECT_EQ(hit[0] + hit[1] + hit[2], 0);

  cache.InsertBatch(keys, ids, 2, /*epoch=*/0);  // keys 1, 2
  ASSERT_EQ(cache.LookupBatch(keys, 1, 0, got, hit), 1u);  // refreshes key 1
  EXPECT_EQ(got[0], 10);
  cache.InsertBatch(keys + 2, ids + 2, 1, /*epoch=*/0);  // evicts key 2 (LRU)
  EXPECT_EQ(cache.LookupBatch(keys, 3, 0, got, hit), 2u);
  EXPECT_TRUE(hit[0] && !hit[1] && hit[2]);
  EXPECT_EQ(got[2], 30);
  auto st = cache.stats();
  EXPECT_EQ(st.size, 2u);
  EXPECT_EQ(st.insertions, 3u);
  EXPECT_EQ(st.evictions, 1u);

  // Next model epoch: every surviving entry is stale — miss + erase.
  EXPECT_EQ(cache.LookupBatch(keys, 3, /*epoch=*/1, got, hit), 0u);
  st = cache.stats();
  EXPECT_EQ(st.invalidations, 2u);
  EXPECT_EQ(st.size, 0u);

  // A straggling old-epoch insert can never serve epoch 1 — and once
  // epoch 1 re-learns the key, the stale flush's probe misses without
  // evicting the new entry and its insert is dropped.
  cache.InsertBatch(keys, ids, 1, /*epoch=*/0);
  EXPECT_EQ(cache.LookupBatch(keys, 1, /*epoch=*/1, got, hit), 0u);
  const int new_id = 77;
  cache.InsertBatch(keys, &new_id, 1, /*epoch=*/1);
  EXPECT_EQ(cache.LookupBatch(keys, 1, /*epoch=*/0, got, hit), 0u);
  cache.InsertBatch(keys, ids, 1, /*epoch=*/0);  // stale writer: dropped
  ASSERT_EQ(cache.LookupBatch(keys, 1, /*epoch=*/1, got, hit), 1u);
  EXPECT_EQ(got[0], 77);

  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(TemplateIdCacheTest, ZeroCapacityNeverStores) {
  engine::TemplateIdCache cache({.capacity = 0});
  const uint64_t key = 7;
  const int id = 3;
  int got = -1;
  uint8_t hit = 0;
  cache.InsertBatch(&key, &id, 1, 0);
  EXPECT_EQ(cache.LookupBatch(&key, 1, 0, &got, &hit), 0u);
  EXPECT_EQ(cache.stats().size, 0u);
}

// Hit/miss/evict/invalidate races: concurrent batched probes and inserts
// (with epoch churn) must stay internally consistent — a hit's id always
// matches its key's ground truth for the epoch probed.
TEST(TemplateIdCacheTest, ConcurrentMixedUseIsSafe) {
  engine::TemplateIdCache cache({.capacity = 64, .num_shards = 4});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      constexpr size_t kBatch = 8;
      uint64_t keys[kBatch];
      int ids[kBatch];
      int got[kBatch];
      uint8_t hit[kBatch];
      for (uint64_t i = 0; i < 1500; ++i) {
        const uint64_t epoch = i / 500;  // three epochs per thread
        for (size_t j = 0; j < kBatch; ++j) {
          keys[j] = (i * 2654435761u + static_cast<uint64_t>(t) + j * 97) % 128;
          // Ground truth: the id a key maps to under an epoch.
          ids[j] = static_cast<int>(keys[j] * 3 + epoch);
        }
        if (i % 3 == 0) {
          cache.InsertBatch(keys, ids, kBatch, epoch);
        } else {
          cache.LookupBatch(keys, kBatch, epoch, got, hit);
          for (size_t j = 0; j < kBatch; ++j) {
            if (hit[j] && got[j] != ids[j]) bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  const auto st = cache.stats();
  EXPECT_LE(st.size, 64u + 4u);  // per-shard rounding slack
  EXPECT_GT(st.hits + st.misses, 0u);
}

// ---------- ScoringService ----------

TEST_F(ServiceTest, SingleShardMatchesScalarPath) {
  engine::ScoringService service({Borrow(model_)});
  const auto batches = engine::MakeConsecutiveBatches(400, 10);
  std::vector<std::future<Result<double>>> futures;
  for (const auto& b : batches) {
    futures.push_back(service.Submit("tenant", dataset_->records,
                                     b.query_indices));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want =
        model_->PredictWorkload(dataset_->records, batches[i].query_indices);
    ASSERT_TRUE(want.ok());
    EXPECT_NEAR(*got, *want, 1e-9) << "workload " << i;
  }
  service.Stop();
  const auto st = service.stats();
  EXPECT_EQ(st.submitted, batches.size());
  EXPECT_EQ(st.completed, batches.size());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GE(st.flushes, 1u);
  EXPECT_EQ(st.queue_depth, 0u);
}

TEST_F(ServiceTest, ManyClientsManyShardsEveryFutureResolvesCorrectly) {
  // Two distinct models + a replica shard: the router must keep tenant ->
  // model assignments stable while clients hammer all shards at once.
  engine::ScoringServiceOptions opt;
  opt.max_batch = 16;
  opt.max_delay_us = 100;
  engine::ScoringService service(
      {Borrow(model_), Borrow(model2_), Borrow(model_)}, opt);

  constexpr size_t kClients = 8, kPerClient = 60;
  util::Latch start(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.ArriveAndWait();
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t shard = (c + i) % service.num_shards();
        auto w = Workload(c * 37 + i * 11, 5 + (i % 7));
        auto fut = service.SubmitToShard(shard, dataset_->records, w);
        auto got = fut.get();
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto want = service.model(shard)->PredictWorkload(dataset_->records, w);
        if (!want.ok() || std::abs(*got - *want) > 1e-9) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  service.Stop();
  const auto st = service.stats();
  EXPECT_EQ(st.submitted, kClients * kPerClient);
  EXPECT_EQ(st.completed, kClients * kPerClient);
  EXPECT_EQ(st.failed, 0u);
}

TEST_F(ServiceTest, RepeatedWorkloadsHitTheCacheBitwise) {
  engine::ScoringServiceOptions opt;
  opt.cache_capacity = 256;
  engine::ScoringService service({Borrow(model_)}, opt);
  const auto batches = engine::MakeConsecutiveBatches(400, 10);

  std::vector<double> cold;
  for (const auto& b : batches) {
    auto got = service.Submit("t", dataset_->records, b.query_indices).get();
    ASSERT_TRUE(got.ok());
    cold.push_back(*got);
  }
  const auto cold_stats = service.stats();
  EXPECT_EQ(cold_stats.cache_hits, 0u);
  EXPECT_EQ(cold_stats.cache_misses, batches.size());

  // Second pass: the same workloads, shuffled member order — fingerprints
  // are order-invariant, so every one hits, and scores are bitwise equal.
  for (size_t i = 0; i < batches.size(); ++i) {
    std::vector<uint32_t> shuffled = batches[i].query_indices;
    std::reverse(shuffled.begin(), shuffled.end());
    auto got = service.Submit("t", dataset_->records, shuffled).get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, cold[i]) << "workload " << i;  // bitwise
  }
  const auto warm_stats = service.stats();
  EXPECT_EQ(warm_stats.cache_hits, batches.size());
  EXPECT_EQ(warm_stats.cache_misses, batches.size());
  EXPECT_DOUBLE_EQ(warm_stats.cache_hit_rate(), 0.5);
}

TEST_F(ServiceTest, BadRequestFailsAloneGoodNeighborsSucceed) {
  engine::ScoringServiceOptions opt;
  opt.max_batch = 64;
  opt.max_delay_us = 5000;  // wide window so the good pair share a flush
  opt.adaptive_flush = false;  // keep the window; adaptive would flush early
  engine::ScoringService service({Borrow(model_)}, opt);

  auto good1 = service.Submit("t", dataset_->records, Workload(0, 10));
  // Out-of-range query index: rejected at the Submit trust boundary, before
  // it can poison the dispatcher's batch.
  auto bad = service.Submit("t", dataset_->records, {4000000000u});
  auto good2 = service.Submit("t", dataset_->records, Workload(20, 10));

  auto g1 = good1.get();
  auto b = bad.get();
  auto g2 = good2.get();
  EXPECT_TRUE(g1.ok()) << g1.status().ToString();
  EXPECT_TRUE(b.status().IsOutOfRange());
  EXPECT_TRUE(g2.ok()) << g2.status().ToString();
  service.Stop();
  const auto st = service.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 0u);  // never entered a queue
}

// The reachable batch-poisoning case: an empty workload fails a
// variable-length model's whole histogram pass (zero mass), and the
// dispatcher's request-by-request fallback isolates the error to the
// offending future while its flush-mates still score correctly.
TEST_F(ServiceTest, EmptyWorkloadFailsAloneUnderVariableLengthModel) {
  core::LearnedWmpOptions lopt;
  lopt.templates.num_templates = 8;
  lopt.regressor = ml::RegressorKind::kRidge;
  lopt.variable_length = true;
  auto model = core::LearnedWmpModel::Train(dataset_->records, *indices_,
                                            *dataset_->generator, lopt);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  engine::ScoringServiceOptions opt;
  opt.max_delay_us = 5000;  // wide window so all three share a flush
  opt.adaptive_flush = false;  // keep the window; adaptive would flush early
  engine::ScoringService service({Borrow(&*model)}, opt);
  auto good1 = service.Submit("t", dataset_->records, Workload(0, 10));
  auto empty = service.Submit("t", dataset_->records, {});
  auto good2 = service.Submit("t", dataset_->records, Workload(50, 25));

  auto g1 = good1.get();
  auto e = empty.get();
  auto g2 = good2.get();
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  EXPECT_TRUE(e.status().IsInvalidArgument()) << e.status().ToString();
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  auto want1 = model->PredictWorkload(dataset_->records, Workload(0, 10));
  auto want2 = model->PredictWorkload(dataset_->records, Workload(50, 25));
  ASSERT_TRUE(want1.ok());
  ASSERT_TRUE(want2.ok());
  EXPECT_NEAR(*g1, *want1, 1e-9);
  EXPECT_NEAR(*g2, *want2, 1e-9);
  service.Stop();
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().completed, 2u);
}

// Batch-level scoring failures (here: an untrained model, so every
// ScoreWorkloads call errors) resolve every future with the error instead
// of abandoning promises or crashing the dispatcher.
TEST_F(ServiceTest, ScoringFailureResolvesEveryFutureWithError) {
  const core::LearnedWmpModel untrained;
  engine::ScoringService service({Borrow(&untrained)});
  std::vector<std::future<Result<double>>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        service.Submit("t", dataset_->records, Workload(i * 10, 10)));
  }
  for (auto& f : futures) {
    auto got = f.get();
    EXPECT_TRUE(got.status().IsFailedPrecondition()) << got.status();
  }
  service.Stop();
  const auto st = service.stats();
  EXPECT_EQ(st.failed, 10u);
  EXPECT_EQ(st.completed, 0u);
}

TEST_F(ServiceTest, StopDrainsAcceptedWorkAndRejectsNewWork) {
  engine::ScoringServiceOptions opt;
  opt.max_delay_us = 20000;  // requests sit in the queue when Stop arrives
  opt.adaptive_flush = false;  // adaptive would score them before Stop
  auto service = std::make_unique<engine::ScoringService>(
      std::vector<std::shared_ptr<const core::LearnedWmpModel>>{
          Borrow(model_)},
      opt);
  std::vector<std::future<Result<double>>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back(
        service->Submit("t", dataset_->records, Workload(i * 10, 10)));
  }
  service->Stop();
  for (auto& f : futures) {
    auto got = f.get();
    EXPECT_TRUE(got.ok()) << got.status().ToString();  // drained, not dropped
  }
  auto late = service->Submit("t", dataset_->records, Workload(0, 10)).get();
  EXPECT_TRUE(late.status().IsFailedPrecondition());
  service.reset();  // destructor after explicit Stop is safe
}

TEST_F(ServiceTest, RouterIsStableAndCoversShards) {
  engine::ScoringService service(
      {Borrow(model_), Borrow(model2_), Borrow(model_), Borrow(model2_)});
  std::set<size_t> seen;
  for (int t = 0; t < 64; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const size_t s = service.ShardForTenant(tenant);
    EXPECT_LT(s, service.num_shards());
    EXPECT_EQ(s, service.ShardForTenant(tenant));  // stable
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), service.num_shards());  // 64 tenants cover 4 shards
  auto bad = service.SubmitToShard(99, dataset_->records, Workload(0, 5));
  EXPECT_TRUE(bad.get().status().IsInvalidArgument());
}

TEST_F(ServiceTest, MicroBatchingActuallyBatches) {
  engine::ScoringServiceOptions opt;
  opt.max_batch = 128;
  opt.max_delay_us = 20000;
  // This test is about the fixed collection window; the adaptive
  // controller would trade batch depth for latency on purpose.
  opt.adaptive_flush = false;
  engine::ScoringService service({Borrow(model_)}, opt);
  constexpr size_t kClients = 4, kPerClient = 25;
  util::Latch start(kClients);
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<Result<double>>>> futures(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.ArriveAndWait();
      for (size_t i = 0; i < kPerClient; ++i) {
        futures[c].push_back(
            service.Submit("t", dataset_->records, Workload(c * 100 + i, 10)));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  }
  service.Stop();
  const auto st = service.stats();
  EXPECT_EQ(st.completed, kClients * kPerClient);
  // Cross-client micro-batching: far fewer flushes than requests.
  EXPECT_LT(st.flushes, st.completed / 2);
  EXPECT_GT(st.avg_batch(), 2.0);
  EXPECT_GE(st.max_queue_depth, 1u);
}

// ---------- Template-id cache through the serving path ----------

// Novel combinations of known queries: the histogram cache cannot hit
// (every workload fingerprint is new) but the template cache resolves
// every member query, so featurize/assign is skipped per query — and the
// memoized ids reproduce the cold path's predictions bitwise.
TEST_F(ServiceTest, NovelCombinationsOfKnownQueriesHitTemplateCacheBitwise) {
  engine::ScoringServiceOptions opt;
  opt.cache_capacity = 0;  // disable level 1: isolate the per-query memo
  opt.template_cache_capacity = 4096;
  engine::ScoringService service({Borrow(model_)}, opt);
  const auto batches = engine::MakeConsecutiveBatches(400, 10);

  std::vector<double> cold;
  for (const auto& b : batches) {
    auto got = service.Submit("t", dataset_->records, b.query_indices).get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    cold.push_back(*got);
  }
  const auto cold_stats = service.stats();
  EXPECT_EQ(cold_stats.cache_hits, 0u);  // level 1 is off
  // The memo is content-addressed: the handful of duplicate-content
  // queries in the log hit even on the cold pass, so assert on totals and
  // deltas rather than exact zero.
  EXPECT_EQ(cold_stats.template_cache_hits + cold_stats.template_cache_misses,
            400u);
  EXPECT_GT(cold_stats.template_cache_misses, 300u);

  // Same workloads again: every query id comes from the memo, and the
  // histogram it builds is bit-identical, so the prediction is too.
  for (size_t i = 0; i < batches.size(); ++i) {
    auto got =
        service.Submit("t", dataset_->records, batches[i].query_indices).get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, cold[i]) << "workload " << i;  // bitwise
  }
  const auto warm_stats = service.stats();
  EXPECT_EQ(warm_stats.template_cache_hits,
            cold_stats.template_cache_hits + 400u);  // every query memoized
  EXPECT_EQ(warm_stats.template_cache_misses, cold_stats.template_cache_misses);

  // Novel regrouping: stride-partition the same 400 known queries into
  // workloads no fingerprint has seen. All template ids resolve from the
  // memo; predictions match the scalar path exactly per workload.
  for (size_t g = 0; g < 40; ++g) {
    std::vector<uint32_t> novel;
    for (size_t j = 0; j < 10; ++j) {
      novel.push_back(static_cast<uint32_t>((g + j * 40) % 400));
    }
    auto got = service.Submit("t", dataset_->records, novel).get();
    ASSERT_TRUE(got.ok());
    auto want = model_->PredictWorkload(dataset_->records, novel);
    ASSERT_TRUE(want.ok());
    EXPECT_NEAR(*got, *want, 1e-9) << "novel workload " << g;
  }
  const auto novel_stats = service.stats();
  EXPECT_EQ(novel_stats.template_cache_hits,
            warm_stats.template_cache_hits + 400u);  // all 400 again
  EXPECT_EQ(novel_stats.template_cache_misses,
            warm_stats.template_cache_misses);
  service.Stop();
}

// Concurrent Submit against a tiny template cache: hit/miss/evict races
// through the full serving path must never corrupt a prediction.
TEST_F(ServiceTest, ConcurrentSubmitWithTinyTemplateCacheStaysCorrect) {
  engine::ScoringServiceOptions opt;
  opt.cache_capacity = 0;         // every workload reaches the binning path
  opt.template_cache_capacity = 16;  // constant eviction under 400 queries
  engine::ScoringService service({Borrow(model_)}, opt);
  constexpr size_t kClients = 4, kPerClient = 40;
  util::Latch start(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.ArriveAndWait();
      for (size_t i = 0; i < kPerClient; ++i) {
        auto w = Workload(c * 53 + i * 17, 6 + (i % 5));
        auto got = service.Submit("t", dataset_->records, w).get();
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto want = model_->PredictWorkload(dataset_->records, w);
        if (!want.ok() || std::abs(*got - *want) > 1e-9) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  service.Stop();
}

// ---------- Adaptive flush ----------

// A closed-loop client must not pay the fixed delay window as latency:
// once its request is the only one in flight, the dispatcher flushes
// immediately (and says so in the flush-reason counters).
TEST_F(ServiceTest, AdaptiveFlushSparesClosedLoopClientsTheDelayWindow) {
  constexpr int kRequests = 5;
  constexpr int64_t kDelayUs = 200000;  // 200 ms: unmissable if waited out
  engine::ScoringServiceOptions opt;
  opt.max_delay_us = kDelayUs;
  opt.adaptive_flush = true;
  engine::ScoringService service({Borrow(model_)}, opt);
  Stopwatch sw;
  for (int i = 0; i < kRequests; ++i) {
    auto got =
        service.Submit("t", dataset_->records, Workload(i * 10, 10)).get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  const double elapsed_s = sw.ElapsedSeconds();
  service.Stop();
  // Fixed-delay dispatch would take >= kRequests * 200 ms = 1 s.
  EXPECT_LT(elapsed_s, 0.5);
  const auto st = service.stats();
  EXPECT_EQ(st.completed, static_cast<uint64_t>(kRequests));
  EXPECT_GE(st.flushes_adaptive, 1u);
  EXPECT_EQ(st.flushes_deadline, 0u);
  EXPECT_EQ(st.flushes,
            st.flushes_full + st.flushes_adaptive + st.flushes_deadline +
                st.flushes_drain);
}

// Control experiment: with the adaptive controller off, the same closed
// loop waits out every delay window, and the counters attribute each
// flush to the deadline.
TEST_F(ServiceTest, FixedDelayFlushesAreDeadlineBoundAndCounted) {
  constexpr int kRequests = 3;
  constexpr int64_t kDelayUs = 30000;  // 30 ms per request
  engine::ScoringServiceOptions opt;
  opt.max_delay_us = kDelayUs;
  opt.adaptive_flush = false;
  engine::ScoringService service({Borrow(model_)}, opt);
  Stopwatch sw;
  for (int i = 0; i < kRequests; ++i) {
    auto got =
        service.Submit("t", dataset_->records, Workload(i * 10, 10)).get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  const double elapsed_s = sw.ElapsedSeconds();
  service.Stop();
  EXPECT_GE(elapsed_s, 0.08);  // 3 x 30 ms, minus timer slack
  const auto st = service.stats();
  EXPECT_GE(st.flushes_deadline, 1u);
  EXPECT_EQ(st.flushes_adaptive, 0u);
  EXPECT_GE(st.avg_latency_us(), static_cast<double>(kDelayUs) * 0.8);
}

// ---------- RCU model hot-swap ----------

// PublishModel swaps the serving snapshot between flushes and the epoch
// bump invalidates both cache levels: post-swap predictions match the new
// model bitwise (a stale cached histogram or template id would surface
// here as an old-model prediction).
TEST_F(ServiceTest, PublishModelServesNewModelBitwiseAndInvalidatesCaches) {
  engine::ScoringServiceOptions opt;
  opt.cache_capacity = 256;
  opt.template_cache_capacity = 4096;
  engine::ScoringService service({Borrow(model_)}, opt);
  const auto batches = engine::MakeConsecutiveBatches(400, 10);

  // Warm both cache levels under the old model.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& b : batches) {
      auto got = service.Submit("t", dataset_->records, b.query_indices).get();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
    }
  }
  const auto pre = service.stats();
  EXPECT_EQ(pre.cache_hits, batches.size());  // pass 2 hit level 1

  ASSERT_TRUE(service.PublishModel(0, Borrow(model2_)).ok());
  EXPECT_EQ(service.stats().models_published, 1u);

  // The reference for "what the new model says", through the same batched
  // arithmetic the service uses — predictions must agree bitwise.
  engine::BatchScorer reference(model2_);
  auto want = reference.ScoreWorkloads(dataset_->records, batches);
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < batches.size(); ++i) {
    auto got =
        service.Submit("t", dataset_->records, batches[i].query_indices).get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want->predictions[i]) << "workload " << i;  // bitwise
  }
  // The post-swap pass could not have been served by stale entries: both
  // levels re-missed (epoch bump), then re-filled under the new epoch.
  const auto post = service.stats();
  EXPECT_EQ(post.cache_hits, pre.cache_hits);  // no new level-1 hits
  EXPECT_GT(post.template_cache_misses, pre.template_cache_misses);

  // Out-of-range shard and null model are rejected, not crashed.
  EXPECT_TRUE(service.PublishModel(99, Borrow(model2_)).IsInvalidArgument());
  EXPECT_TRUE(service.PublishModel(0, nullptr).IsInvalidArgument());
  service.Stop();
}

// The acceptance bar for hot-swap: publishing under full client load
// completes with zero failed requests, every prediction matches one of
// the two models involved, and the service converges to the final model
// bitwise. Also retires an *owned* model under traffic (RCU: the last
// in-flight reference frees it).
TEST_F(ServiceTest, PublishModelUnderLiveTrafficLosesNothing) {
  engine::ScoringService service({Borrow(model_)});
  constexpr size_t kClients = 4, kPerClient = 60;
  util::Latch start(kClients + 1);
  std::atomic<int> failures{0};
  std::atomic<int> unexplained{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.ArriveAndWait();
      for (size_t i = 0; i < kPerClient; ++i) {
        auto w = Workload(c * 31 + i * 13, 5 + (i % 6));
        auto got = service.Submit("t", dataset_->records, w).get();
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Every prediction must be explainable by a model that was
        // published at some point (swap timing is the dispatcher's call).
        auto w1 = model_->PredictWorkload(dataset_->records, w);
        auto w2 = model2_->PredictWorkload(dataset_->records, w);
        if (!w1.ok() || !w2.ok() ||
            (std::abs(*got - *w1) > 1e-9 && std::abs(*got - *w2) > 1e-9)) {
          unexplained.fetch_add(1);
        }
      }
    });
  }
  // Publisher thread: flip between the two suite models under load, and
  // retire a short-lived owned model mid-stream (trained here, dropped by
  // the swap — RCU must keep it alive exactly as long as a flush uses it).
  std::thread publisher([&] {
    start.ArriveAndWait();
    core::LearnedWmpOptions lopt;
    lopt.templates.num_templates = 8;
    lopt.regressor = ml::RegressorKind::kRidge;
    auto owned = core::LearnedWmpModel::Train(dataset_->records, *indices_,
                                              *dataset_->generator, lopt);
    for (int flip = 0; flip < 10; ++flip) {
      ASSERT_TRUE(service
                      .PublishModel(0, flip % 2 == 0 ? Borrow(model2_)
                                                     : Borrow(model_))
                      .ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (owned.ok()) {
      auto shared =
          std::make_shared<const core::LearnedWmpModel>(std::move(*owned));
      ASSERT_TRUE(service.PublishModel(0, shared).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Converge on model2 for the post-traffic check.
    ASSERT_TRUE(service.PublishModel(0, Borrow(model2_)).ok());
  });
  for (auto& t : clients) t.join();
  publisher.join();
  EXPECT_EQ(failures.load(), 0);
  // The owned interim model serves a brief window (ridge on the same
  // histograms — numerically distinct from both suite models), so don't
  // count its predictions as corruption; they must still be rare.
  EXPECT_LE(unexplained.load(), static_cast<int>(kClients * kPerClient / 4));

  // Post-swap steady state: bitwise the final model, via the same batched
  // arithmetic.
  const auto probes = engine::MakeConsecutiveBatches(100, 10);
  engine::BatchScorer reference(model2_);
  auto want = reference.ScoreWorkloads(dataset_->records, probes);
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    auto got =
        service.Submit("t", dataset_->records, probes[i].query_indices).get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want->predictions[i]) << "probe " << i;
  }
  service.Stop();
  EXPECT_EQ(service.stats().failed, 0u);
}

}  // namespace
}  // namespace wmp
