// Serving-path benchmark: p50/p99 request latency and sustained
// queries/sec of engine::ScoringService vs client count x shard count,
// plus the payoff of each serving-path v2 mechanism:
//
//   baseline        one synchronous BatchScorer::ScoreLog at batch 1000 —
//                   the PR 1 offline-batch throughput the async service
//                   must sustain.
//   sync_fixed /    C closed-loop clients (block on every future) over a
//   sync_adaptive   fresh stream, with the adaptive flush controller off
//                   vs on — the adaptive dispatcher flushes the moment no
//                   further arrival can be pending instead of sleeping out
//                   max_delay_us, so closed-loop p50 collapses.
//   cold_pipelined  C open-loop clients submit their whole slice, then
//                   drain the futures — the async API used as intended, so
//                   the dispatcher sees deep queues and flushes full
//                   batches.
//   repeat          the pipelined stream submitted R times (drained
//                   between passes); from the second pass on every
//                   histogram is a level-1 cache hit, and hit-path
//                   predictions are checked bitwise against pass one.
//   novel           the same *queries* regrouped into workloads no
//                   fingerprint has seen: the histogram cache cannot hit,
//                   but the per-query template-id cache resolves every
//                   member, so featurize/assign is skipped per query.
//                   Reports both levels' hit rates side by side.
//   hotswap         PublishModel of a second trained model under full
//                   pipelined load: zero failed requests across the swap,
//                   and post-swap predictions bitwise equal to the new
//                   model's own batched scoring.
//   compiled        one cold pipelined pass through the compiled bin-space
//                   ensemble; every prediction must be bitwise the
//                   regressor's raw-space walk over the same histograms.
//   cold_nocache    one pass with both cache levels off and the records'
//                   precomputed plan features stripped, so every query
//                   pays plan walk -> scale -> NearestCentroids assign;
//                   every prediction must be bitwise the in-process
//                   PredictWorkloads, taken before the strip.
//
// Output: human tables plus JSON records (stdout, or --json=PATH):
//   {"figure":"serve_latency","mode":"novel","clients":4,"shards":1,
//    "queries_per_sec":...,"p50_us":...,"p99_us":...,"adaptive":true,
//    "cache_hit_rate":...,"template_hit_rate":...,"flushes_full":...,
//    "flushes_adaptive":...,"flushes_deadline":...,"errors":0,
//    "bitwise_identical":true}
// Latency percentiles are client-observed submit -> resolve times; in the
// pipelined modes they are completion (sojourn) times, queueing included.
//
// --quick shrinks every sweep to a seconds-long CI smoke configuration.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/batch_scorer.h"
#include "engine/scoring_service.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/sync.h"
#include "util/timer.h"

using namespace wmp;

namespace {

struct ServeRow {
  std::string mode;
  int clients = 0;
  int shards = 0;
  bool adaptive = true;
  size_t workloads = 0;
  size_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;       // level 1: histogram cache
  double template_hit_rate = 0.0;  // level 2: template-id cache
  uint64_t flushes_full = 0;
  uint64_t flushes_adaptive = 0;
  uint64_t flushes_deadline = 0;
  uint64_t errors = 0;
  bool bitwise_identical = true;
};

std::string ToJson(const ServeRow& r) {
  return StrFormat(
      "{\"figure\":\"serve_latency\",\"mode\":\"%s\",\"clients\":%d,"
      "\"shards\":%d,\"adaptive\":%s,\"workloads\":%zu,\"queries\":%zu,"
      "\"seconds\":%.3f,\"queries_per_sec\":%.1f,\"p50_us\":%.1f,"
      "\"p99_us\":%.1f,\"cache_hit_rate\":%.4f,\"template_hit_rate\":%.4f,"
      "\"flushes_full\":%llu,\"flushes_adaptive\":%llu,"
      "\"flushes_deadline\":%llu,\"errors\":%llu,\"bitwise_identical\":%s}",
      r.mode.c_str(), r.clients, r.shards, r.adaptive ? "true" : "false",
      r.workloads, r.queries, r.seconds, r.qps, r.p50_us, r.p99_us,
      r.hit_rate, r.template_hit_rate,
      static_cast<unsigned long long>(r.flushes_full),
      static_cast<unsigned long long>(r.flushes_adaptive),
      static_cast<unsigned long long>(r.flushes_deadline),
      static_cast<unsigned long long>(r.errors),
      r.bitwise_identical ? "true" : "false");
}

// Drives `clients` threads, each submitting its slice of `batches`
// `repeat` times, and fills latency + prediction outputs. Predictions are
// recorded per (pass, workload) for the bitwise check.
struct DriveResult {
  double seconds = 0.0;
  std::vector<double> latencies_us;
  std::vector<std::vector<double>> pass_predictions;  // [repeat][workload]
  uint64_t errors = 0;
};

DriveResult Drive(engine::ScoringService* service,
                  const std::vector<workloads::QueryRecord>& records,
                  const std::vector<core::WorkloadBatch>& batches,
                  int clients, int repeat, bool pipelined) {
  DriveResult out;
  out.pass_predictions.assign(
      static_cast<size_t>(repeat),
      std::vector<double>(batches.size(), 0.0));
  std::vector<std::vector<double>> per_client_lat(
      static_cast<size_t>(clients));
  std::atomic<uint64_t> errors{0};
  util::Latch start(static_cast<size_t>(clients) + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::string tenant = StrFormat("client-%d", c);
      auto& lat = per_client_lat[static_cast<size_t>(c)];
      // Strided slice: client c owns workloads c, c+clients, ... — clients
      // never submit each other's workloads, so a pass can re-hit its own
      // pass-1 cache entries without cross-client coordination.
      std::vector<size_t> slice;
      for (size_t w = static_cast<size_t>(c); w < batches.size();
           w += static_cast<size_t>(clients)) {
        slice.push_back(w);
      }
      start.ArriveAndWait();
      for (int r = 0; r < repeat; ++r) {
        auto& preds = out.pass_predictions[static_cast<size_t>(r)];
        if (pipelined) {
          // Open loop: submit the whole slice, then drain. Latency is the
          // client-observed completion (sojourn) time per request.
          std::vector<std::chrono::steady_clock::time_point> t0(slice.size());
          std::vector<std::future<Result<double>>> futures;
          futures.reserve(slice.size());
          for (size_t i = 0; i < slice.size(); ++i) {
            t0[i] = std::chrono::steady_clock::now();
            futures.push_back(service->Submit(
                tenant, records, batches[slice[i]].query_indices));
          }
          for (size_t i = 0; i < slice.size(); ++i) {
            auto got = futures[i].get();
            lat.push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0[i])
                    .count());
            if (got.ok()) {
              preds[slice[i]] = *got;
            } else {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } else {
          // Closed loop: one request in flight per client.
          for (size_t w : slice) {
            Stopwatch sw;
            auto fut =
                service->Submit(tenant, records, batches[w].query_indices);
            auto got = fut.get();
            lat.push_back(sw.ElapsedMicros());
            if (got.ok()) {
              preds[w] = *got;
            } else {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  Stopwatch wall;
  start.ArriveAndWait();
  for (auto& t : threads) t.join();
  out.seconds = wall.ElapsedSeconds();
  out.errors = errors.load();
  for (auto& v : per_client_lat) {
    out.latencies_us.insert(out.latencies_us.end(), v.begin(), v.end());
  }
  return out;
}

size_t CountQueries(const std::vector<core::WorkloadBatch>& batches) {
  size_t n = 0;
  for (const auto& b : batches) n += b.query_indices.size();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner(
      "serve_latency",
      "async service v2: adaptive flush, two-level cache, model hot-swap",
      args);

  // One TPC-C model serves every configuration; the serving layer, not the
  // model, is under test. A second model (different seed) is the hot-swap
  // payload.
  const core::ExperimentConfig cfg =
      bench::MakeConfig(workloads::Benchmark::kTpcc, args);
  auto data = core::PrepareExperiment(cfg);
  if (!data.ok()) {
    std::cerr << "prepare failed: " << data.status() << "\n";
    return 1;
  }
  core::LearnedWmpOptions lopt;
  lopt.templates.num_templates = 16;
  lopt.batch_size = cfg.batch_size;
  lopt.seed = cfg.seed;
  auto model = core::LearnedWmpModel::Train(
      data->dataset.records, data->train_indices, *data->dataset.generator,
      lopt);
  if (!model.ok()) {
    std::cerr << "train failed: " << model.status() << "\n";
    return 1;
  }
  core::LearnedWmpOptions lopt2 = lopt;
  lopt2.seed = cfg.seed + 1;  // distinct centroids + trees: a real retrain
  auto model2 = core::LearnedWmpModel::Train(
      data->dataset.records, data->train_indices, *data->dataset.generator,
      lopt2);
  if (!model2.ok()) {
    std::cerr << "train (swap payload) failed: " << model2.status() << "\n";
    return 1;
  }
  const auto& records = data->dataset.records;
  const auto batches =
      engine::MakeConsecutiveBatches(records.size(), cfg.batch_size);

  std::vector<ServeRow> rows;

  // --- Baseline: the PR 1 offline path, batch 1000, all cores ---
  {
    engine::BatchScorer scorer(&*model);
    auto warmup = scorer.ScoreLog(records, 1000);  // touch pool + caches
    auto res = scorer.ScoreLog(records, 1000);
    ServeRow row;
    row.mode = "baseline";
    if (res.ok()) {
      row.workloads = res->stats.num_workloads;
      row.queries = res->stats.num_queries;
      row.seconds = res->stats.elapsed_ms / 1e3;
      row.qps = res->stats.queries_per_sec;
    } else {
      std::cerr << "baseline failed: " << res.status() << "\n";
      return 1;
    }
    (void)warmup;
    rows.push_back(row);
  }

  // One run of `passes` over `batches` against a fresh service; returns the
  // recorded row (also appended to `rows`).
  const auto run_row = [&](const char* mode, int clients, int shards,
                           int passes, bool pipelined,
                           const std::vector<core::WorkloadBatch>& batches,
                           engine::ScoringServiceOptions sopt) {
    engine::ScoringService service(
        std::vector<const core::LearnedWmpModel*>(
            static_cast<size_t>(shards), &*model),
        sopt);
    DriveResult d =
        Drive(&service, records, batches, clients, passes, pipelined);
    service.Stop();
    const engine::ServiceStats st = service.stats();
    ServeRow row;
    row.mode = mode;
    row.clients = clients;
    row.shards = shards;
    row.adaptive = sopt.adaptive_flush;
    row.workloads = st.completed;
    // The clients' strided slices partition the stream, so each pass
    // submits every workload exactly once.
    row.queries = CountQueries(batches) * static_cast<size_t>(passes);
    row.seconds = d.seconds;
    row.qps =
        d.seconds > 0 ? static_cast<double>(row.queries) / d.seconds : 0.0;
    row.p50_us = util::PercentileInPlace(&d.latencies_us, 0.50);
    row.p99_us = util::PercentileInPlace(&d.latencies_us, 0.99);
    row.hit_rate = st.cache_hit_rate();
    row.template_hit_rate = st.template_cache_hit_rate();
    row.flushes_full = st.flushes_full;
    row.flushes_adaptive = st.flushes_adaptive;
    row.flushes_deadline = st.flushes_deadline;
    row.errors = d.errors;
    row.bitwise_identical = d.errors == 0;
    for (int r = 1; r < passes && row.bitwise_identical; ++r) {
      for (size_t w = 0; w < batches.size(); ++w) {
        if (d.pass_predictions[static_cast<size_t>(r)][w] !=
            d.pass_predictions[0][w]) {
          row.bitwise_identical = false;
          break;
        }
      }
    }
    rows.push_back(row);
    return row;
  };

  const std::vector<int> shard_grid = args.quick ? std::vector<int>{1}
                                                 : std::vector<int>{1, 2, 4};
  const std::vector<int> client_grid =
      args.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const int repeat = args.quick ? 4 : 10;  // hits = (repeat-1)/repeat

  // --- Adaptive vs fixed closed-loop latency, and the pipelined/repeat
  // throughput sweep ---
  for (int shards : shard_grid) {
    TablePrinter table(StrFormat("serve_latency — %d shard(s)", shards));
    table.SetHeader({"clients", "fixed p50/p99 us", "adaptive p50/p99 us",
                     "piped qps", "repeat qps", "hist hit", "tmpl hit",
                     "bitwise"});
    for (int clients : client_grid) {
      engine::ScoringServiceOptions fixed_opt;
      fixed_opt.adaptive_flush = false;
      const ServeRow fixed =
          run_row("sync_fixed", clients, shards, 1, false, batches, fixed_opt);
      engine::ScoringServiceOptions adaptive_opt;  // defaults: adaptive on
      const ServeRow adaptive = run_row("sync_adaptive", clients, shards, 1,
                                        false, batches, adaptive_opt);
      // Open-loop clients build deep queues; let the dispatcher flush them
      // in full-size scoring passes, and keep the delay window small so
      // the per-pass drain barrier doesn't idle the service.
      engine::ScoringServiceOptions piped_opt;
      piped_opt.max_batch = 1024;
      piped_opt.max_delay_us = 25;
      const ServeRow piped = run_row("cold_pipelined", clients, shards, 1,
                                     true, batches, piped_opt);
      const ServeRow rep =
          run_row("repeat", clients, shards, repeat, true, batches, piped_opt);
      table.AddRow(
          {StrFormat("%d", clients),
           StrFormat("%.0f / %.0f", fixed.p50_us, fixed.p99_us),
           StrFormat("%.0f / %.0f", adaptive.p50_us, adaptive.p99_us),
           StrFormat("%.0f", piped.qps), StrFormat("%.0f", rep.qps),
           StrFormat("%.1f%%", 100.0 * rep.hit_rate),
           StrFormat("%.1f%%", 100.0 * rep.template_hit_rate),
           rep.bitwise_identical ? "yes" : "NO"});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  // --- Novel combinations of known queries: histogram cache blind,
  // template-id cache hot. Warm with the consecutive grouping, then
  // submit stride regroupings no workload fingerprint has seen. ---
  {
    const int clients = args.quick ? 2 : 4;
    engine::ScoringServiceOptions sopt;
    sopt.max_batch = 1024;
    sopt.max_delay_us = 25;
    engine::ScoringService service({&*model}, sopt);
    // Warm pass: consecutive grouping fills both cache levels.
    DriveResult warm = Drive(&service, records, batches, clients, 1, true);
    const engine::ServiceStats warm_st = service.stats();
    // Novel pass: deal queries round-robin into as many workloads, so
    // every workload is a new multiset of already-known queries.
    const size_t n_workloads = batches.size();
    std::vector<core::WorkloadBatch> novel(n_workloads);
    for (size_t q = 0; q < records.size(); ++q) {
      novel[q % n_workloads].query_indices.push_back(
          static_cast<uint32_t>(q));
    }
    DriveResult d = Drive(&service, records, novel, clients, 1, true);
    service.Stop();
    const engine::ServiceStats st = service.stats();
    ServeRow row;
    row.mode = "novel";
    row.clients = clients;
    row.shards = 1;
    row.workloads = novel.size();
    row.queries = CountQueries(novel);
    row.seconds = d.seconds;
    row.qps = d.seconds > 0 ? static_cast<double>(row.queries) / d.seconds
                            : 0.0;
    row.p50_us = util::PercentileInPlace(&d.latencies_us, 0.50);
    row.p99_us = util::PercentileInPlace(&d.latencies_us, 0.99);
    // Deltas isolate the novel pass from the warm-up.
    const uint64_t h_hits = st.cache_hits - warm_st.cache_hits;
    const uint64_t h_miss = st.cache_misses - warm_st.cache_misses;
    const uint64_t t_hits = st.template_cache_hits - warm_st.template_cache_hits;
    const uint64_t t_miss =
        st.template_cache_misses - warm_st.template_cache_misses;
    row.hit_rate = h_hits + h_miss > 0
                       ? static_cast<double>(h_hits) /
                             static_cast<double>(h_hits + h_miss)
                       : 0.0;
    row.template_hit_rate = t_hits + t_miss > 0
                                ? static_cast<double>(t_hits) /
                                      static_cast<double>(t_hits + t_miss)
                                : 0.0;
    // Delta-consistent with the hit rates: the novel row reports the
    // novel pass only, not the warm-up's flushes or errors.
    row.flushes_full = st.flushes_full - warm_st.flushes_full;
    row.flushes_adaptive = st.flushes_adaptive - warm_st.flushes_adaptive;
    row.flushes_deadline = st.flushes_deadline - warm_st.flushes_deadline;
    row.errors = d.errors;
    row.bitwise_identical = d.errors == 0;
    if (warm.errors != 0) {
      std::cerr << "serve_latency: novel warm-up pass had " << warm.errors
                << " errors\n";
      return 1;
    }
    rows.push_back(row);
    TablePrinter table("serve_latency — novel combinations of known queries");
    table.SetHeader({"pass", "hist hit rate", "tmpl hit rate", "qps"});
    table.AddRow({"warm (consecutive)",
                  StrFormat("%.1f%%", 100.0 * warm_st.cache_hit_rate()),
                  StrFormat("%.1f%%",
                            100.0 * warm_st.template_cache_hit_rate()),
                  StrFormat("%.0f", warm.seconds > 0
                                        ? CountQueries(batches) / warm.seconds
                                        : 0.0)});
    table.AddRow({"novel (regrouped)",
                  StrFormat("%.1f%%", 100.0 * row.hit_rate),
                  StrFormat("%.1f%%", 100.0 * row.template_hit_rate),
                  StrFormat("%.0f", row.qps)});
    table.Print(std::cout);
    std::cout << "\n";
  }

  // --- Hot swap under live pipelined load: publish model2 mid-stream,
  // then check the post-swap steady state is model2 bitwise. ---
  {
    const int clients = args.quick ? 2 : 4;
    const int passes = args.quick ? 6 : 12;
    engine::ScoringServiceOptions sopt;
    sopt.max_batch = 1024;
    sopt.max_delay_us = 25;
    engine::ScoringService service({&*model}, sopt);
    std::thread publisher([&] {
      // Swap once the stream is demonstrably live (mid-first-pass), gated
      // on completed requests rather than a sleep so a fast machine can't
      // race past the publish. Publishing after the drive finished would
      // be harmless — but then the phase would measure nothing.
      const uint64_t live_mark = batches.size() / 2 + 1;
      while (service.stats().completed < live_mark) std::this_thread::yield();
      (void)service.PublishModel(0, {std::shared_ptr<const void>(), &*model2});
    });
    DriveResult d = Drive(&service, records, batches, clients, passes, true);
    publisher.join();
    // Post-swap steady state, still under the same service: bitwise the
    // new model's own batched scoring.
    engine::BatchScorer reference(&*model2);
    auto want = reference.ScoreWorkloads(records, batches);
    bool post_swap_bitwise = want.ok();
    uint64_t post_errors = 0;
    if (want.ok()) {
      for (size_t w = 0; w < batches.size(); ++w) {
        auto got =
            service.Submit("probe", records, batches[w].query_indices).get();
        if (!got.ok()) {
          ++post_errors;
        } else if (*got != want->predictions[w]) {
          post_swap_bitwise = false;
        }
      }
    }
    service.Stop();
    const engine::ServiceStats st = service.stats();
    ServeRow row;
    row.mode = "hotswap";
    row.clients = clients;
    row.shards = 1;
    row.workloads = st.completed;
    row.queries = CountQueries(batches) * static_cast<size_t>(passes);
    row.seconds = d.seconds;
    row.qps = d.seconds > 0 ? static_cast<double>(row.queries) / d.seconds
                            : 0.0;
    row.p50_us = util::PercentileInPlace(&d.latencies_us, 0.50);
    row.p99_us = util::PercentileInPlace(&d.latencies_us, 0.99);
    row.hit_rate = st.cache_hit_rate();
    row.template_hit_rate = st.template_cache_hit_rate();
    row.flushes_full = st.flushes_full;
    row.flushes_adaptive = st.flushes_adaptive;
    row.flushes_deadline = st.flushes_deadline;
    row.errors = d.errors + post_errors;
    row.bitwise_identical = post_swap_bitwise;
    rows.push_back(row);
    TablePrinter table("serve_latency — PublishModel under live traffic");
    table.SetHeader(
        {"requests", "failed", "post-swap bitwise", "qps during swap"});
    table.AddRow({StrFormat("%llu",
                            static_cast<unsigned long long>(st.completed)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        st.failed + row.errors)),
                  post_swap_bitwise ? "yes" : "NO",
                  StrFormat("%.0f", row.qps)});
    table.Print(std::cout);
    std::cout << "\n";
  }

  // --- Apples-to-apples vs the baseline: serve the SAME batch-1000
  // workloads through the async service, 8 concurrent clients, repeated
  // stream. This is the acceptance bar: the serving layer (queues,
  // futures, micro-batching, caches) must sustain the offline batch-1000
  // throughput, not tax it away.
  {
    const auto batches_1000 =
        engine::MakeConsecutiveBatches(records.size(), 1000);
    const int b1000_clients = args.quick ? 4 : 8;
    const int b1000_passes = args.quick ? 10 : 50;
    const std::vector<int> b1000_shards =
        args.quick ? std::vector<int>{1} : std::vector<int>{1, 2};
    TablePrinter table(StrFormat("serve_latency — batch-1000 stream, %d clients",
                                 b1000_clients));
    table.SetHeader(
        {"shards", "qps", "baseline qps", "ratio", "hit rate", "bitwise"});
    engine::ScoringServiceOptions sopt;
    sopt.max_batch = 1024;
    sopt.max_delay_us = 25;
    for (int shards : b1000_shards) {
      const ServeRow row = run_row("serve_batch1000", b1000_clients, shards,
                                   b1000_passes, true, batches_1000, sopt);
      table.AddRow({StrFormat("%d", shards), StrFormat("%.0f", row.qps),
                    StrFormat("%.0f", rows[0].qps),
                    StrFormat("%.2fx", row.qps / std::max(rows[0].qps, 1.0)),
                    StrFormat("%.1f%%", 100.0 * row.hit_rate),
                    row.bitwise_identical ? "yes" : "NO"});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  // One cold pipelined pass through a fresh one-shard service, every
  // prediction compared bitwise against `reference`. The flag feeds the
  // nonzero-exit gate below, so CI's serve smoke fails on any divergence.
  const auto run_gated = [&](const char* mode, const char* title,
                             const engine::ScoringServiceOptions& sopt,
                             const Result<std::vector<double>>& reference) {
    const int clients = args.quick ? 2 : 4;
    engine::ScoringService service({&*model}, sopt);
    DriveResult d = Drive(&service, records, batches, clients, 1, true);
    service.Stop();
    bool bitwise = reference.ok() && d.errors == 0;
    for (size_t w = 0; bitwise && w < batches.size(); ++w) {
      if (d.pass_predictions[0][w] != (*reference)[w]) {
        std::cerr << mode << " divergence at workload " << w << ": "
                  << d.pass_predictions[0][w] << " vs " << (*reference)[w]
                  << "\n";
        bitwise = false;
      }
    }
    ServeRow row;
    row.mode = mode;
    row.clients = clients;
    row.shards = 1;
    row.workloads = batches.size();
    row.queries = CountQueries(batches);
    row.seconds = d.seconds;
    row.qps = d.seconds > 0 ? static_cast<double>(row.queries) / d.seconds
                            : 0.0;
    row.p50_us = util::PercentileInPlace(&d.latencies_us, 0.50);
    row.p99_us = util::PercentileInPlace(&d.latencies_us, 0.99);
    row.errors = d.errors;
    row.bitwise_identical = bitwise;
    rows.push_back(row);
    TablePrinter table(title);
    table.SetHeader({"path", "qps", "p50 us", "p99 us", "bitwise"});
    table.AddRow({row.mode, StrFormat("%.0f", row.qps),
                  StrFormat("%.0f", row.p50_us),
                  StrFormat("%.0f", row.p99_us), bitwise ? "yes" : "NO"});
    table.Print(std::cout);
    std::cout << "\n";
  };

  // --- Compiled bin-space inference through the full service stack,
  // against the regressor's raw-space walk over the same histograms.
  {
    engine::ScoringServiceOptions sopt;
    sopt.max_batch = 1024;
    sopt.max_delay_us = 25;
    Result<std::vector<double>> reference =
        Status::FailedPrecondition("model has no compiled form");
    if (model->compiled() != nullptr) {
      auto histograms = model->BinWorkloads(records, batches);
      reference = histograms.ok() ? model->regressor().Predict(*histograms)
                                  : histograms.status();
    }
    run_gated("compiled", "serve_latency — compiled bin-space inference",
              sopt, reference);
  }

  // --- Cache-bypass cold mode: both cache levels disabled and the
  // records' precomputed plan_features stripped, so every submission pays
  // the full cold featurize (plan walk) -> scale -> assign per query. The
  // reference is in-process PredictWorkloads, taken before the strip. ---
  {
    engine::ScoringServiceOptions sopt;
    sopt.max_batch = 1024;
    sopt.max_delay_us = 25;
    sopt.cache_capacity = 0;           // bypass level 1 (histograms)
    sopt.template_cache_capacity = 0;  // bypass level 2 (template ids)
    const auto reference = model->PredictWorkloads(records, batches);
    auto& mut_records = data->dataset.records;
    std::vector<std::vector<double>> saved(mut_records.size());
    for (size_t i = 0; i < mut_records.size(); ++i) {
      saved[i].swap(mut_records[i].plan_features);
    }
    run_gated("cold_nocache",
              "serve_latency — cache-bypass cold path (plan-walk featurize)",
              sopt, reference);
    for (size_t i = 0; i < mut_records.size(); ++i) {
      saved[i].swap(mut_records[i].plan_features);
    }
  }

  FILE* out = stdout;
  if (!args.json_path.empty()) {
    out = std::fopen(args.json_path.c_str(), "w");
    if (out == nullptr) {
      std::cerr << "cannot open " << args.json_path << "\n";
      return 1;
    }
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "  %s%s\n", ToJson(rows[i]).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);

  // Exit nonzero if any serving-path invariant failed, so the CI smoke
  // step fails on crashes AND regressions.
  for (const ServeRow& r : rows) {
    if (r.errors != 0 || !r.bitwise_identical) {
      std::cerr << "serve_latency: mode " << r.mode << " had " << r.errors
                << " errors (bitwise "
                << (r.bitwise_identical ? "ok" : "BROKEN") << ")\n";
      return 1;
    }
  }
  return 0;
}
