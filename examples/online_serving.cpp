// Online serving — the paper's DBMS-integration story, end to end.
//
// A DBMS admission controller doesn't score pre-assembled evaluation sets;
// it fields a stream of concurrent per-session prediction requests. This
// example stands up the async scoring service (engine::ScoringService) over
// a trained LearnedWMP model, drives it from several "session" threads, and
// shows what the serving layer adds over the raw BatchScorer:
//
//   * Submit() returns a future immediately — sessions overlap their own
//     work with scoring.
//   * Concurrent requests are micro-batched into one scoring pass per
//     flush; the adaptive controller flushes early whenever no further
//     arrival can be pending, so closed-loop sessions skip the delay
//     window (see the flush-reason breakdown in the stats printout).
//   * A steady-state session re-submitting the same workload hits the
//     histogram cache and skips featurize/assign entirely, with
//     bit-identical predictions — and a *novel* workload made of known
//     queries still skips per-query featurize/assign via the template-id
//     cache.
//   * Retraining publishes into the live service (PublishModel): traffic
//     keeps flowing across the swap and both caches version on the model
//     epoch, so no stale prediction can leak.
//
// Run: ./build/online_serving

#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "engine/batch_scorer.h"
#include "engine/scoring_service.h"
#include "util/sync.h"
#include "workloads/dataset.h"

using namespace wmp;

int main() {
  // Train on a simulated TPC-C log (a deployment would LoadFromFile a
  // model shipped by wmpctl train).
  workloads::DatasetOptions dopt;
  dopt.num_queries = 800;
  dopt.seed = 17;
  auto dataset = workloads::BuildDataset(workloads::Benchmark::kTpcc, dopt);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  core::LearnedWmpOptions opt;
  opt.templates.num_templates = 12;
  auto model = core::LearnedWmpModel::Train(
      dataset->records, core::AllIndices(dataset->records.size()),
      *dataset->generator, opt);
  if (!model.ok()) {
    std::fprintf(stderr, "train: %s\n", model.status().ToString().c_str());
    return 1;
  }

  // Two shards over the one model: dispatch spreads across queues while
  // the process-wide worker pool stays shared.
  engine::ScoringServiceOptions sopt;
  sopt.max_batch = 32;
  sopt.max_delay_us = 500;
  auto shared =
      std::make_shared<const core::LearnedWmpModel>(std::move(*model));
  engine::ScoringService service({shared, shared}, sopt);

  // Four concurrent sessions, each scoring its own slice of the log —
  // and every session re-submits its first workload, as a steady-state
  // OLTP stream would, to exercise the cache.
  const auto batches = engine::MakeConsecutiveBatches(
      dataset->records.size(), /*batch_size=*/10);
  constexpr size_t kSessions = 4;
  util::Latch start(kSessions);
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      const std::string tenant = "session-" + std::to_string(s);
      start.ArriveAndWait();
      double first_cold = 0.0, first_warm = 0.0;
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t w = s; w < batches.size(); w += kSessions) {
          auto fut =
              service.Submit(tenant, dataset->records,
                             batches[w].query_indices);
          auto got = fut.get();
          if (!got.ok()) {
            std::fprintf(stderr, "%s: %s\n", tenant.c_str(),
                         got.status().ToString().c_str());
            return;
          }
          if (w == s) (pass == 0 ? first_cold : first_warm) = *got;
        }
      }
      std::printf("%s: workload %zu cold %.2f MB, cached %.2f MB (%s)\n",
                  tenant.c_str(), s, first_cold, first_warm,
                  first_cold == first_warm ? "bit-identical" : "MISMATCH");
    });
  }
  for (auto& t : sessions) t.join();

  // A novel workload assembled from queries session-0 already scored:
  // the caches are per shard, so only queries routed through the same
  // tenant are memoized there. Its fingerprint is new (histogram cache
  // miss) but every member's template id is memoized, so featurize/assign
  // is skipped per query. Session 0's slice is workloads 0, 4, 8, ... —
  // take one query from each of its first ten workloads.
  std::vector<uint32_t> novel;
  for (uint32_t k = 0; k < 10; ++k) novel.push_back(k * 40 + k);
  auto novel_before = service.stats();
  auto novel_got = service.Submit("session-0", dataset->records, novel).get();
  auto novel_after = service.stats();
  if (novel_got.ok()) {
    std::printf(
        "\nnovel workload of known queries: %.2f MB "
        "(histogram cache +%llu hits, template cache +%llu hits)\n",
        *novel_got,
        static_cast<unsigned long long>(novel_after.cache_hits -
                                        novel_before.cache_hits),
        static_cast<unsigned long long>(novel_after.template_cache_hits -
                                        novel_before.template_cache_hits));
  }

  // Retrain (here: a different seed stands in for fresh log data) and
  // publish into the live service — the paper's "ship the model into the
  // DBMS" step, without a restart.
  core::LearnedWmpOptions opt2 = opt;
  opt2.seed = 99;
  auto retrained = core::LearnedWmpModel::Train(
      dataset->records, core::AllIndices(dataset->records.size()),
      *dataset->generator, opt2);
  if (retrained.ok()) {
    auto fresh =
        std::make_shared<const core::LearnedWmpModel>(std::move(*retrained));
    for (size_t shard = 0; shard < service.num_shards(); ++shard) {
      if (Status st = service.PublishModel(shard, fresh); !st.ok()) {
        std::fprintf(stderr, "publish: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    auto before = service.Submit("session-0", dataset->records,
                                 batches[0].query_indices)
                      .get();
    if (before.ok()) {
      std::printf("after hot-swap, workload 0 scores %.2f MB on the "
                  "retrained model (no restart, no failed requests)\n",
                  *before);
    }
  }
  service.Stop();

  const engine::ServiceStats st = service.stats();
  std::printf(
      "\nservice: %llu requests -> %llu flushes (avg batch %.1f; "
      "%llu full, %llu adaptive, %llu deadline), hist cache %.1f%%, "
      "template cache %.1f%%, %llu models published, avg latency %.0f us\n",
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.flushes), st.avg_batch(),
      static_cast<unsigned long long>(st.flushes_full),
      static_cast<unsigned long long>(st.flushes_adaptive),
      static_cast<unsigned long long>(st.flushes_deadline),
      100.0 * st.cache_hit_rate(), 100.0 * st.template_cache_hit_rate(),
      static_cast<unsigned long long>(st.models_published),
      st.avg_latency_us());
  return st.failed == 0 ? 0 : 1;
}
