// wmpctl — command-line front end for the LearnedWMP library.
//
// The operational workflow of the paper's "DBMS Integration" section as a
// tool:
//
//   wmpctl generate --benchmark=tpcc --queries=2000 --out=log.txt
//       Fabricate a query log (SQL + EXPLAIN + observed memory) with one
//       of the built-in benchmark simulators. A real deployment replaces
//       this step with a dump from its DBMS in the same text format.
//
//   wmpctl train --log=log.txt --model=model.wmp [--templates=K] [--batch=S]
//       Train a LearnedWMP model from a query log and persist it. With
//       --publish, additionally rehearse the production rollout: stand up
//       the async scoring service on the PREVIOUS artifact at --model (if
//       one exists), drive live traffic against it, hot-swap the freshly
//       trained model in mid-stream (ScoringService::PublishModel), and
//       verify zero failed requests plus bitwise agreement of post-swap
//       predictions with the new model.
//
//   wmpctl evaluate --log=log.txt --model=model.wmp [--batch=S]
//       Score a model against a labeled log (RMSE / MAPE over workloads).
//
//   wmpctl predict --log=workload.txt --model=model.wmp
//       Treat the whole log file as one workload and predict its memory.
//
//   wmpctl serve-bench --log=log.txt --model=model.wmp [--clients=8]
//                      [--shards=1] [--batch=S] [--repeat=3] [--adaptive=1]
//       Drive N concurrent client threads against the async scoring
//       service (engine::ScoringService): each client submits every
//       workload of the log `repeat` times, so the second pass onward
//       exercises the caches. Reports throughput, latency, per-level
//       cache hit rates (histogram vs template-id), and the flush-reason
//       breakdown of the adaptive micro-batching controller.
//
//   wmpctl serve --listen=ADDR --model=model.wmp [--name=default]
//                [--shards=N] [--warm-log=log.txt]
//       Stand up the out-of-process scoring server (net::ReactorServer
//       over ScoringService + ModelRegistry) on "unix:/path.sock" or
//       "host:port". Runs until SIGINT/SIGTERM, then drains and prints
//       the serving stats. --warm-log registers a corpus so every
//       publish re-warms the template cache in the background.
//
//   wmpctl score --log=log.txt (--connect=ADDR | --model=model.wmp)
//                [--batch=S] [--chunk=4096] [--tenant=NAME]
//       Score a log against a remote server (or a local model) in
//       fixed-size chunks: the log streams through workloads::
//       QueryLogReader, so the resident set stays capped at ~one chunk
//       no matter how large the log is.
//
//   wmpctl rollback --connect=ADDR [--name=default]
//       Revert the server's named model to the previous registry epoch.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/learned_wmp.h"
#include "core/single_wmp.h"
#include "engine/batch_scorer.h"
#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "ml/metrics.h"
#include "net/fleet.h"
#include "net/reactor_server.h"
#include "net/wire_client.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/sync.h"
#include "util/timer.h"
#include "workloads/dataset.h"
#include "workloads/log_io.h"

using namespace wmp;

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--", 2) != 0) continue;
    const char* eq = std::strchr(a, '=');
    if (eq == nullptr) {
      // Not `= "1"`: GCC 12 reports a false -Wrestrict on that overload.
      flags[a + 2] = std::string(1, '1');
    } else {
      flags[std::string(a + 2, eq)] = eq + 1;
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// Reads integer flag `key` as a T, or `fallback` when it is absent. The
// whole value must be one decimal integer that T holds (std::from_chars: no
// sign for an unsigned T, no suffix, no spaces); anything else exits 2
// naming the flag, so `--queries=5k` never runs as 5 queries.
template <typename T>
T IntFlagOr(const std::map<std::string, std::string>& flags,
            const std::string& key, T fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  const char* const end = text.data() + text.size();
  T value{};
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    std::fprintf(stderr, "error: --%s=%s is not an integer in [%s, %s]\n",
                 key.c_str(), text.c_str(),
                 std::to_string(std::numeric_limits<T>::min()).c_str(),
                 std::to_string(std::numeric_limits<T>::max()).c_str());
    std::exit(2);
  }
  return value;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wmpctl generate --benchmark=tpcds|job|tpcc --queries=N "
               "--out=PATH [--seed=N]\n"
               "  wmpctl train    --log=PATH --model=PATH [--templates=K] "
               "[--batch=S] [--seed=N] [--publish]\n"
               "  wmpctl evaluate --log=PATH --model=PATH [--batch=S]\n"
               "  wmpctl predict  --log=PATH --model=PATH\n"
               "  wmpctl serve-bench --log=PATH --model=PATH [--clients=8] "
               "[--shards=1]\n"
               "                 [--batch=S] [--repeat=3] [--max-batch=64] "
               "[--max-delay-us=200]\n"
               "                 [--adaptive=1] [--template-cache=65536] "
               "[--cache=4096]\n"
               "  wmpctl serve    --listen=ADDR --model=PATH "
               "[--name=default] [--shards=N]\n"
               "                 [--warm-log=PATH] [--max-batch=64] "
               "[--max-delay-us=200]\n"
               "  wmpctl score    --log=PATH (--connect=ADDR | "
               "--model=PATH) [--batch=S]\n"
               "                 [--chunk=4096] [--tenant=NAME]\n"
               "  wmpctl rollback --connect=ADDR [--name=default]\n"
               "  wmpctl fleet status|score|publish|rollback "
               "--nodes=ADDR,ADDR,...\n"
               "                 [--log=PATH] [--model=PATH] "
               "[--name=default] [--batch=S]\n"
               "                 [--tenant=NAME] [--chunk=4096] "
               "[--attempts=4] [--seed=1]\n"
               "                 [--probe-interval-ms=200] "
               "[--request-timeout-ms=2000]\n"
               "ADDR is unix:/path.sock or host:port; --publish accepts "
               "--connect=ADDR\n"
               "to roll out over the wire instead of rehearsing "
               "in-process.\n"
               "common: --threads=N caps the worker pool (0 = all cores)\n");
  return 2;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string name = FlagOr(flags, "benchmark", "tpcc");
  workloads::Benchmark benchmark;
  if (name == "tpcds") {
    benchmark = workloads::Benchmark::kTpcds;
  } else if (name == "job") {
    benchmark = workloads::Benchmark::kJob;
  } else if (name == "tpcc") {
    benchmark = workloads::Benchmark::kTpcc;
  } else {
    std::fprintf(stderr, "unknown benchmark: %s\n", name.c_str());
    return 2;
  }
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) return Usage();

  workloads::DatasetOptions opt;
  opt.num_queries = IntFlagOr<size_t>(flags, "queries", 1000);
  opt.seed = IntFlagOr<uint64_t>(flags, "seed", 42);
  auto dataset = workloads::BuildDataset(benchmark, opt);
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status st = workloads::WriteQueryLog(dataset->records, out); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %zu %s queries to %s\n", dataset->records.size(),
              dataset->benchmark_name.c_str(), out.c_str());
  return 0;
}

// The --publish rollout rehearsal: serve `live` (the previous artifact,
// or the fresh model itself on a first train), hot-swap `fresh` in under
// closed-loop traffic, and verify the swap lost nothing — zero failed
// requests and post-swap predictions bitwise equal to the fresh model's
// own batched scoring.
int RunPublishRehearsal(const std::vector<workloads::QueryRecord>& records,
                        std::shared_ptr<const core::LearnedWmpModel> live,
                        std::shared_ptr<const core::LearnedWmpModel> fresh,
                        int batch_size) {
  const auto batches =
      engine::MakeConsecutiveBatches(records.size(), batch_size);
  if (batches.empty()) {
    std::fprintf(stderr, "log too small for one workload of %d queries\n",
                 batch_size);
    return 1;
  }
  engine::ScoringService service({std::move(live)});
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> done{0};
  constexpr int kPasses = 4;
  std::thread driver([&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& b : batches) {
        auto got = service.Submit("rollout", records, b.query_indices).get();
        if (!got.ok()) errors.fetch_add(1, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Swap once the stream is demonstrably live (mid-first-pass).
  while (done.load(std::memory_order_relaxed) < batches.size() / 2 + 1) {
    std::this_thread::yield();
  }
  if (Status st = service.PublishModel(0, fresh); !st.ok()) {
    driver.join();
    return Fail(st);
  }
  driver.join();

  // Post-swap steady state must be the fresh model, bitwise.
  engine::BatchScorer reference(fresh);
  auto want = reference.ScoreWorkloads(records, batches);
  if (!want.ok()) return Fail(want.status());
  size_t mismatches = 0;
  for (size_t w = 0; w < batches.size(); ++w) {
    auto got =
        service.Submit("rollout", records, batches[w].query_indices).get();
    if (!got.ok()) {
      errors.fetch_add(1, std::memory_order_relaxed);
    } else if (*got != want->predictions[w]) {
      ++mismatches;
    }
  }
  service.Stop();
  const engine::ServiceStats st = service.stats();
  std::printf(
      "publish rehearsal: %llu requests across the swap, %llu failed, "
      "%zu post-swap mismatches\n",
      static_cast<unsigned long long>(st.completed + st.failed),
      static_cast<unsigned long long>(errors.load()), mismatches);
  std::printf("  hot-swap %s: live traffic kept flowing and the service "
              "now serves the fresh model bitwise\n",
              errors.load() == 0 && mismatches == 0 ? "OK" : "FAILED");
  return errors.load() == 0 && mismatches == 0 ? 0 : 1;
}

// The --publish --connect rollout: push the freshly-trained artifact to a
// running `wmpctl serve` over the wire (PublishAll across every shard +
// registry recording), then verify the swap took by scoring the training
// log remotely and comparing bitwise against the fresh model's own local
// batched scoring.
int RunRemotePublish(const std::string& address, const std::string& name,
                     const std::vector<workloads::QueryRecord>& records,
                     const core::LearnedWmpModel& fresh, int batch_size) {
  net::WireClient client(address);
  auto epoch = client.Publish(name, fresh);
  if (!epoch.ok()) return Fail(epoch.status());
  std::printf("published '%s' to %s (registry epoch %llu)\n", name.c_str(),
              address.c_str(), static_cast<unsigned long long>(*epoch));

  const auto batches =
      engine::MakeConsecutiveBatches(records.size(), batch_size);
  if (batches.empty()) {
    std::fprintf(stderr, "log too small for one workload of %d queries\n",
                 batch_size);
    return 1;
  }
  engine::BatchScorer reference(&fresh);
  auto want = reference.ScoreWorkloads(records, batches);
  if (!want.ok()) return Fail(want.status());
  auto got = client.ScoreWorkloads("rollout-verify", records, batches);
  if (!got.ok()) return Fail(got.status());
  size_t failed = 0, mismatches = 0;
  for (size_t w = 0; w < batches.size(); ++w) {
    if (!(*got)[w].ok()) {
      ++failed;
    } else if (*(*got)[w] != want->predictions[w]) {
      ++mismatches;
    }
  }
  std::printf("post-swap verification: %zu workloads scored remotely, "
              "%zu failed, %zu mismatches\n",
              batches.size(), failed, mismatches);
  std::printf("  cross-process rollout %s: the server now serves the fresh "
              "model bitwise\n",
              failed == 0 && mismatches == 0 ? "OK" : "FAILED");
  return failed == 0 && mismatches == 0 ? 0 : 1;
}

int CmdTrain(const std::map<std::string, std::string>& flags) {
  const std::string log_path = FlagOr(flags, "log", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (log_path.empty() || model_path.empty()) return Usage();

  auto records = workloads::LoadQueryLog(log_path);
  if (!records.ok()) return Fail(records.status());

  // For --publish, pick up the previous artifact BEFORE it is overwritten:
  // the rehearsal swaps old -> new exactly like a production rollout.
  const bool publish = flags.count("publish") > 0;
  std::shared_ptr<const core::LearnedWmpModel> previous;
  if (publish) {
    if (auto old = core::LearnedWmpModel::LoadFromFile(model_path); old.ok()) {
      previous =
          std::make_shared<const core::LearnedWmpModel>(std::move(*old));
    }
  }

  core::LearnedWmpOptions opt;
  opt.templates.num_templates = IntFlagOr(flags, "templates", 0);
  opt.batch_size = IntFlagOr(flags, "batch", 10);
  opt.seed = IntFlagOr<uint64_t>(flags, "seed", 42);
  const auto indices = core::AllIndices(records->size());
  if (opt.templates.num_templates <= 0) {
    // Elbow-tune k over a standard candidate grid.
    std::vector<int> ks;
    for (int k = 10; k <= 100; k += 10) ks.push_back(k);
    std::vector<double> inertias;
    Stopwatch sweep;
    auto chosen = core::ChooseNumTemplates(*records, indices, ks, opt.seed,
                                           &inertias);
    const double sweep_ms = sweep.ElapsedMillis();
    if (!chosen.ok()) return Fail(chosen.status());
    opt.templates.num_templates = *chosen;
    std::printf("elbow-tuned k = %d\n", opt.templates.num_templates);
    // What the sweep cost and the curve the elbow was read from, so a
    // retrain's time and its k are explainable from the CLI.
    std::printf("elbow sweep: %zu fits in %.1f ms; inertia by k:", ks.size(),
                sweep_ms);
    for (size_t i = 0; i < ks.size(); ++i) {
      std::printf(" %d:%.1f", ks[i], inertias[i]);
    }
    std::printf("\n");
  }
  auto model = core::LearnedWmpModel::Train(*records, indices, opt);
  if (!model.ok()) return Fail(model.status());
  if (Status st = model->SaveToFile(model_path); !st.ok()) return Fail(st);
  std::printf(
      "trained on %zu queries (%zu workloads of %d), saved %zu bytes to %s\n",
      records->size(), model->train_stats().num_workloads, opt.batch_size,
      model->SerializedSize().ValueOr(0), model_path.c_str());
  // Phase breakdown, so a training regression is attributable from the CLI:
  // featurize covers template learning (TR1-TR3) + workload histograms
  // (TR4-TR5); bin/grow/round-update split the tree trainer's fit (TR6).
  const core::LearnedWmpTrainStats& ts = model->train_stats();
  std::printf(
      "phase timing: featurize %.1f ms (templates %.1f + histograms %.1f), "
      "regressor %.1f ms (bin %.1f / grow %.1f / round-update %.1f)\n",
      ts.template_ms + ts.histogram_ms, ts.template_ms, ts.histogram_ms,
      ts.regressor_ms, ts.regressor_timing.bin_ms, ts.regressor_timing.grow_ms,
      ts.regressor_timing.update_ms);
  if (publish) {
    auto fresh =
        std::make_shared<const core::LearnedWmpModel>(std::move(*model));
    // With --connect this is a REAL rollout: the artifact crosses a
    // process boundary into a running `wmpctl serve`. Without it, fall
    // back to the in-process rehearsal (first train: swap onto a live
    // service that starts on the fresh model itself).
    const std::string address = FlagOr(flags, "connect", "");
    if (!address.empty()) {
      return RunRemotePublish(address, FlagOr(flags, "name", "default"),
                              *records, *fresh, opt.batch_size);
    }
    return RunPublishRehearsal(*records, previous ? previous : fresh, fresh,
                               opt.batch_size);
  }
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  const std::string log_path = FlagOr(flags, "log", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (log_path.empty() || model_path.empty()) return Usage();

  auto records = workloads::LoadQueryLog(log_path);
  if (!records.ok()) return Fail(records.status());
  auto model = core::LearnedWmpModel::LoadFromFile(model_path);
  if (!model.ok()) return Fail(model.status());

  core::WorkloadSetOptions wopt;
  wopt.batch_size = IntFlagOr(flags, "batch", 10);
  auto batches = core::BuildWorkloads(*records, core::AllIndices(records->size()),
                                      wopt);
  if (batches.empty()) {
    std::fprintf(stderr, "log too small for one workload of %d queries\n",
                 wopt.batch_size);
    return 1;
  }
  // One batched scoring session over the whole eval set.
  engine::BatchScorer scorer(&*model);
  auto learned_result = scorer.ScoreWorkloads(*records, batches);
  if (!learned_result.ok()) return Fail(learned_result.status());
  const std::vector<double>& learned = learned_result->predictions;
  const engine::BatchScorerStats& sstats = learned_result->stats;
  std::vector<double> labels, dbms;
  for (const auto& b : batches) {
    labels.push_back(b.label_mb);
    dbms.push_back(core::DbmsWorkloadEstimate(*records, b.query_indices));
  }
  std::printf("%zu workloads of %d queries\n", batches.size(), wopt.batch_size);
  std::printf("scored %zu queries in %.1f ms (%.0f queries/sec, %zu threads)\n",
              sstats.num_queries, sstats.elapsed_ms, sstats.queries_per_sec,
              util::DefaultParallelism());
  std::printf("LearnedWMP      RMSE %.1f MB   MAPE %.1f%%\n",
              ml::Rmse(labels, learned), ml::Mape(labels, learned));
  const bool has_dbms =
      std::any_of(dbms.begin(), dbms.end(), [](double v) { return v > 0; });
  if (has_dbms) {
    std::printf("SingleWMP-DBMS  RMSE %.1f MB   MAPE %.1f%%\n",
                ml::Rmse(labels, dbms), ml::Mape(labels, dbms));
  }
  return 0;
}

int CmdPredict(const std::map<std::string, std::string>& flags) {
  const std::string log_path = FlagOr(flags, "log", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (log_path.empty() || model_path.empty()) return Usage();

  auto records = workloads::LoadQueryLog(log_path);
  if (!records.ok()) return Fail(records.status());
  auto model = core::LearnedWmpModel::LoadFromFile(model_path);
  if (!model.ok()) return Fail(model.status());

  // The whole log is one workload; score it through the batched session.
  engine::BatchScorer scorer(&*model);
  auto predictions =
      scorer.ScoreLog(*records, static_cast<int>(records->size()));
  if (!predictions.ok()) return Fail(predictions.status());
  const double prediction = predictions->predictions.front();
  std::printf("workload of %zu queries -> predicted %.1f MB\n",
              records->size(), prediction);
  double actual = 0.0;
  for (const auto& r : *records) actual += r.actual_memory_mb;
  if (actual > 0.0) {
    std::printf("labeled actual: %.1f MB (error %+.1f%%)\n", actual,
                100.0 * (prediction - actual) / actual);
  }
  return 0;
}

// Drives N concurrent clients against the async scoring service and
// reports what an operator tuning the admission path wants to see:
// sustained queries/sec, client-observed latency, and cache effectiveness.
int CmdServeBench(const std::map<std::string, std::string>& flags) {
  const std::string log_path = FlagOr(flags, "log", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (log_path.empty() || model_path.empty()) return Usage();

  auto records = workloads::LoadQueryLog(log_path);
  if (!records.ok()) return Fail(records.status());
  auto loaded = core::LearnedWmpModel::LoadFromFile(model_path);
  if (!loaded.ok()) return Fail(loaded.status());
  auto model =
      std::make_shared<const core::LearnedWmpModel>(std::move(*loaded));

  const int clients = std::max(IntFlagOr(flags, "clients", 8), 1);
  const int num_shards = std::max(IntFlagOr(flags, "shards", 1), 1);
  const int batch_size = std::max(IntFlagOr(flags, "batch", 10), 1);
  const int repeat = std::max(IntFlagOr(flags, "repeat", 3), 1);

  engine::ScoringServiceOptions sopt;
  sopt.max_batch =
      static_cast<size_t>(std::max(IntFlagOr(flags, "max-batch", 64), 1));
  sopt.max_delay_us = IntFlagOr<int64_t>(flags, "max-delay-us", 200);
  sopt.adaptive_flush = FlagOr(flags, "adaptive", "1") != "0";
  sopt.cache_capacity = IntFlagOr<size_t>(flags, "cache", 4096);
  sopt.template_cache_capacity =
      IntFlagOr<size_t>(flags, "template-cache", 65536);
  // All shards serve the one trained model; sharding spreads dispatch.
  engine::ScoringService service(
      std::vector<std::shared_ptr<const core::LearnedWmpModel>>(
          static_cast<size_t>(num_shards), model),
      sopt);

  const auto batches = engine::MakeConsecutiveBatches(records->size(), batch_size);
  if (batches.empty()) {
    std::fprintf(stderr, "log too small for one workload of %d queries\n",
                 batch_size);
    return 1;
  }

  std::vector<double> latencies_us;  // merged after the run
  std::vector<std::vector<double>> per_client(static_cast<size_t>(clients));
  util::Latch start(static_cast<size_t>(clients) + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  std::atomic<uint64_t> errors{0};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double>& lat = per_client[static_cast<size_t>(c)];
      lat.reserve(batches.size() * static_cast<size_t>(repeat));
      const std::string tenant = StrFormat("client-%d", c);
      start.ArriveAndWait();
      for (int r = 0; r < repeat; ++r) {
        for (const auto& b : batches) {
          Stopwatch sw;
          auto fut = service.Submit(tenant, *records, b.query_indices);
          auto outcome = fut.get();
          lat.push_back(sw.ElapsedMicros());
          if (!outcome.ok()) errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Stopwatch wall;
  start.ArriveAndWait();
  for (auto& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  service.Stop();

  for (auto& v : per_client) {
    latencies_us.insert(latencies_us.end(), v.begin(), v.end());
  }
  const auto pct = [&](double p) {
    return util::PercentileInPlace(&latencies_us, p);
  };
  const engine::ServiceStats st = service.stats();
  // Every client submits every workload once per repeat pass, so scale the
  // per-pass query count (the tail workload may be partial) by completed
  // workloads rather than assuming `batch_size` queries each.
  size_t pass_queries = 0;
  for (const auto& b : batches) pass_queries += b.query_indices.size();
  const uint64_t queries =
      st.completed * static_cast<uint64_t>(pass_queries) / batches.size();
  std::printf(
      "serve-bench: %d clients x %d shards, batch=%d, repeat=%d, "
      "adaptive=%s\n",
      clients, num_shards, batch_size, repeat,
      sopt.adaptive_flush ? "on" : "off");
  std::printf("  %llu workloads (%llu queries) in %.2f s -> %.0f queries/sec\n",
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(queries), wall_s,
              wall_s > 0 ? static_cast<double>(queries) / wall_s : 0.0);
  // Named locals: printf argument evaluation order is unspecified, and
  // back() is only the max after a pct() call has sorted the sample.
  const double p50 = pct(0.50), p99 = pct(0.99);
  const double lat_max = latencies_us.empty() ? 0.0 : latencies_us.back();
  std::printf("  latency p50 %.0f us   p99 %.0f us   max %.0f us\n", p50, p99,
              lat_max);
  std::printf("  flushes %llu (avg batch %.1f): %llu full, %llu adaptive, "
              "%llu deadline, %llu drain\n",
              static_cast<unsigned long long>(st.flushes), st.avg_batch(),
              static_cast<unsigned long long>(st.flushes_full),
              static_cast<unsigned long long>(st.flushes_adaptive),
              static_cast<unsigned long long>(st.flushes_deadline),
              static_cast<unsigned long long>(st.flushes_drain));
  std::printf("  histogram cache hit rate %.1f%% (%llu/%llu)   "
              "template-id cache hit rate %.1f%% (%llu/%llu)   errors %llu\n",
              100.0 * st.cache_hit_rate(),
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.cache_hits + st.cache_misses),
              100.0 * st.template_cache_hit_rate(),
              static_cast<unsigned long long>(st.template_cache_hits),
              static_cast<unsigned long long>(st.template_cache_hits +
                                              st.template_cache_misses),
              static_cast<unsigned long long>(errors.load()));
  return errors.load() == 0 ? 0 : 1;
}

// wmpctl serve — the out-of-process serving daemon: the epoll reactor
// fronting a sharded ScoringService, with a ModelRegistry so remote
// publishes are rollback-able. Blocks until SIGINT/SIGTERM.
int CmdServe(const std::map<std::string, std::string>& flags) {
  const std::string address = FlagOr(flags, "listen", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (address.empty() || model_path.empty()) return Usage();
  const std::string name = FlagOr(flags, "name", "default");
  const int num_shards = std::max(IntFlagOr(flags, "shards", 1), 1);

  // Block the shutdown signals FIRST, before any thread exists: every
  // thread the service/server spawn inherits this mask, so a
  // process-directed SIGINT/SIGTERM can only be delivered to the sigwait
  // below — delivered to a dispatcher thread it would kill the process
  // via the default disposition instead of draining.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  auto loaded = core::LearnedWmpModel::LoadFromFile(model_path);
  if (!loaded.ok()) return Fail(loaded.status());
  auto model =
      std::make_shared<const core::LearnedWmpModel>(std::move(*loaded));

  engine::ScoringServiceOptions sopt;
  sopt.max_batch =
      static_cast<size_t>(std::max(IntFlagOr(flags, "max-batch", 64), 1));
  sopt.max_delay_us = IntFlagOr<int64_t>(flags, "max-delay-us", 200);
  sopt.adaptive_flush = FlagOr(flags, "adaptive", "1") != "0";
  sopt.cache_capacity = IntFlagOr<size_t>(flags, "cache", 4096);
  sopt.template_cache_capacity =
      IntFlagOr<size_t>(flags, "template-cache", 65536);
  engine::ScoringService service(
      std::vector<std::shared_ptr<const core::LearnedWmpModel>>(
          static_cast<size_t>(num_shards), model),
      sopt);

  // The warm corpus must outlive the service (borrowed by the background
  // warmer), so it lives here in main's scope.
  std::vector<workloads::QueryRecord> warm_records;
  const std::string warm_log = FlagOr(flags, "warm-log", "");
  if (!warm_log.empty()) {
    auto records = workloads::LoadQueryLog(warm_log);
    if (!records.ok()) return Fail(records.status());
    warm_records = std::move(*records);
    service.SetWarmCorpus(&warm_records);
    std::printf("warm corpus: %zu queries from %s\n", warm_records.size(),
                warm_log.c_str());
  }

  engine::ModelRegistry registry;
  // The artifact we booted on is epoch 1, so the first remote publish is
  // already rollback-able.
  if (auto recorded = registry.Record(name, model); !recorded.ok()) {
    return Fail(recorded.status());
  }

  net::ReactorServer server(&service, &registry, name);
  if (Status listen = server.Listen(address); !listen.ok()) {
    return Fail(listen);
  }

  // The event loop runs in the background; this thread sigwaits for the
  // (already blocked) shutdown signals and tears down with ordinary
  // signal-unsafe calls, not inside a handler.
  if (Status started = server.Start(); !started.ok()) return Fail(started);
  std::printf("serving '%s' (%d shard%s) on %s — SIGINT/SIGTERM stops\n",
              name.c_str(), num_shards, num_shards == 1 ? "" : "s",
              server.address().c_str());
  std::fflush(stdout);
  int sig = 0;
  sigwait(&set, &sig);
  std::printf("signal %d: shutting down\n", sig);
  server.Shutdown();
  service.Stop();

  const engine::ServiceStats st = service.stats();
  const net::ReactorCounters rc = server.stats();
  std::printf(
      "served %llu requests (%llu failed) over %llu connections, "
      "%llu frames, %llu protocol errors\n",
      static_cast<unsigned long long>(st.completed + st.failed),
      static_cast<unsigned long long>(st.failed),
      static_cast<unsigned long long>(rc.wire.connections_accepted),
      static_cast<unsigned long long>(rc.wire.frames_served),
      static_cast<unsigned long long>(rc.wire.protocol_errors));
  std::printf(
      "  %llu backpressure pauses, %llu idle connections reaped\n",
      static_cast<unsigned long long>(rc.backpressure_pauses),
      static_cast<unsigned long long>(rc.idle_closed));
  std::printf(
      "  models published %llu, template entries warmed %llu, histogram "
      "hit rate %.1f%%, template hit rate %.1f%%\n",
      static_cast<unsigned long long>(st.models_published),
      static_cast<unsigned long long>(st.template_entries_warmed),
      100.0 * st.cache_hit_rate(), 100.0 * st.template_cache_hit_rate());
  return 0;
}

// wmpctl score — chunked log scoring: the log streams through
// QueryLogReader in --chunk-sized slices, each scored remotely
// (--connect) or locally (--model), so the resident set never exceeds
// ~one chunk of parsed records regardless of log size; remotely, one
// frame carries a whole chunk's workloads.
int CmdScore(const std::map<std::string, std::string>& flags) {
  const std::string log_path = FlagOr(flags, "log", "");
  const std::string address = FlagOr(flags, "connect", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (log_path.empty() || (address.empty() && model_path.empty())) {
    return Usage();
  }
  const int batch_size = std::max(IntFlagOr(flags, "batch", 10), 1);
  const size_t chunk = std::max(IntFlagOr<size_t>(flags, "chunk", 4096),
                                static_cast<size_t>(batch_size));
  const std::string tenant = FlagOr(flags, "tenant", "wmpctl");

  Result<core::LearnedWmpModel> local_model = Status::NotFound("unused");
  std::unique_ptr<engine::BatchScorer> local;
  std::unique_ptr<net::WireClient> remote;
  if (!address.empty()) {
    remote = std::make_unique<net::WireClient>(address);
    if (Status st = remote->Connect(); !st.ok()) return Fail(st);
  } else {
    local_model = core::LearnedWmpModel::LoadFromFile(model_path);
    if (!local_model.ok()) return Fail(local_model.status());
    local = std::make_unique<engine::BatchScorer>(&*local_model);
  }

  auto reader = workloads::QueryLogReader::Open(log_path);
  if (!reader.ok()) return Fail(reader.status());

  std::vector<workloads::QueryRecord> window;  // current chunk + carry
  std::vector<double> predictions, labels;
  size_t total_queries = 0, failures = 0, max_resident = 0;
  Stopwatch wall;
  for (;;) {
    auto appended = reader->ReadChunk(chunk, &window);
    if (!appended.ok()) return Fail(appended.status());
    if (window.empty()) break;
    // Score whole workloads; carry the tail queries into the next chunk so
    // workload boundaries are identical to a whole-log load. The final
    // (post-EOF) pass scores the partial tail workload too.
    size_t usable = window.size() - window.size() % static_cast<size_t>(
                                        batch_size);
    if (reader->exhausted()) usable = window.size();
    if (usable == 0 && !reader->exhausted()) continue;
    if (usable == 0) break;
    const auto batches = engine::MakeConsecutiveBatches(usable, batch_size);
    max_resident = std::max(max_resident, window.size());
    std::vector<workloads::QueryRecord> scored;
    scored.reserve(usable);
    for (size_t i = 0; i < usable; ++i) {
      scored.push_back(std::move(window[i]));
    }
    window.erase(window.begin(), window.begin() + static_cast<long>(usable));
    if (remote != nullptr) {
      auto got = remote->ScoreWorkloads(tenant, scored, batches);
      if (!got.ok()) return Fail(got.status());
      for (size_t w = 0; w < batches.size(); ++w) {
        if ((*got)[w].ok()) {
          predictions.push_back(*(*got)[w]);
        } else {
          predictions.push_back(0.0);
          ++failures;
        }
      }
    } else {
      auto got = local->ScoreWorkloads(scored, batches);
      if (!got.ok()) return Fail(got.status());
      for (double p : got->predictions) predictions.push_back(p);
    }
    for (const auto& b : batches) {
      double label = 0.0;
      for (uint32_t qi : b.query_indices) {
        label += scored[qi].actual_memory_mb;
      }
      labels.push_back(label);
      total_queries += b.query_indices.size();
    }
    if (reader->exhausted()) break;
  }
  const double seconds = wall.ElapsedSeconds();
  if (predictions.empty()) {
    std::fprintf(stderr, "log produced no workloads\n");
    return 1;
  }
  std::printf("scored %zu workloads (%zu queries) in %.2f s via %s — "
              "%.0f queries/sec, resident set capped at %zu records "
              "(chunk %zu)\n",
              predictions.size(), total_queries, seconds,
              !address.empty() ? address.c_str() : "local model",
              seconds > 0 ? static_cast<double>(total_queries) / seconds : 0.0,
              max_resident, chunk);
  const bool labeled =
      std::any_of(labels.begin(), labels.end(), [](double v) { return v > 0; });
  if (labeled && failures == 0) {
    std::printf("LearnedWMP      RMSE %.1f MB   MAPE %.1f%%\n",
                ml::Rmse(labels, predictions), ml::Mape(labels, predictions));
  }
  if (remote != nullptr) {
    if (auto stats = remote->Stats(); stats.ok()) {
      std::printf("server: histogram hit rate %.1f%%, template hit rate "
                  "%.1f%%, %llu entries warmed\n",
                  100.0 * stats->service.cache_hit_rate(),
                  100.0 * stats->service.template_cache_hit_rate(),
                  static_cast<unsigned long long>(
                      stats->service.template_entries_warmed));
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%zu workloads failed to score\n", failures);
    return 1;
  }
  return 0;
}

int CmdRollback(const std::map<std::string, std::string>& flags) {
  const std::string address = FlagOr(flags, "connect", "");
  if (address.empty()) return Usage();
  const std::string name = FlagOr(flags, "name", "default");
  net::WireClient client(address);
  auto epoch = client.Rollback(name);
  if (!epoch.ok()) return Fail(epoch.status());
  std::printf("rolled '%s' back to registry epoch %llu on %s\n", name.c_str(),
              static_cast<unsigned long long>(*epoch), address.c_str());
  return 0;
}

void PrintRollout(const char* op, const net::FleetRolloutReport& report) {
  for (const net::FleetNodeRollout& node : report.nodes) {
    std::printf("  %-28s %s%s%s%s epoch=%llu%s%s\n", node.address.c_str(),
                node.staged ? "staged " : "",
                node.committed ? "committed " : "",
                node.aborted ? "aborted " : "",
                node.compensated ? "rolled-back " : "",
                static_cast<unsigned long long>(node.epoch),
                node.error.empty() ? "" : " error=",
                node.error.c_str());
  }
  if (report.ok) {
    std::printf("fleet %s ok: every node on epoch %llu\n", op,
                static_cast<unsigned long long>(report.epoch));
    if (!report.failure.empty()) {
      std::printf("  %s\n", report.failure.c_str());
    }
  } else {
    std::fprintf(stderr, "fleet %s FAILED: %s\n", op,
                 report.failure.c_str());
  }
}

// wmpctl fleet — drive a predictor fleet through net::FleetRouter:
// health-tracked failover scoring, probes, and the two-phase coordinated
// publish/rollback (any partial failure compensates so the fleet never
// serves mixed epochs).
int CmdFleet(int argc, char** argv,
             const std::map<std::string, std::string>& flags) {
  const std::string verb = argc >= 3 ? argv[2] : "";
  const std::string nodes_flag = FlagOr(flags, "nodes", "");
  if (nodes_flag.empty() || verb.empty()) return Usage();
  std::vector<std::string> addresses;
  for (size_t start = 0; start <= nodes_flag.size();) {
    size_t comma = nodes_flag.find(',', start);
    if (comma == std::string::npos) comma = nodes_flag.size();
    if (comma > start) {
      addresses.push_back(nodes_flag.substr(start, comma - start));
    }
    start = comma + 1;
  }
  if (addresses.empty()) return Usage();

  net::FleetRouterOptions ropt;
  ropt.connect_timeout_ms = IntFlagOr(flags, "connect-timeout-ms", 1000);
  ropt.request_timeout_ms = IntFlagOr(flags, "request-timeout-ms", 2000);
  ropt.probe_interval_ms = IntFlagOr(flags, "probe-interval-ms", 200);
  ropt.max_score_attempts = std::max(IntFlagOr(flags, "attempts", 4), 1);
  ropt.seed = IntFlagOr<uint64_t>(flags, "seed", 1);
  net::FleetRouter router(addresses, ropt);
  if (Status st = router.Start(); !st.ok()) return Fail(st);
  const std::string name = FlagOr(flags, "name", "default");

  if (verb == "status") {
    for (const net::FleetNodeStatus& node : router.Nodes()) {
      std::printf("  %-28s %-8s epoch=%llu failures=%d probes=%llu/%llu\n",
                  node.address.c_str(), net::NodeHealthName(node.health),
                  static_cast<unsigned long long>(node.observed_epoch),
                  node.consecutive_failures,
                  static_cast<unsigned long long>(node.probes_ok),
                  static_cast<unsigned long long>(node.probes_ok +
                                                  node.probes_failed));
    }
    const bool mixed = router.EpochsMixed();
    std::printf("fleet target epoch %llu, %s\n",
                static_cast<unsigned long long>(router.target_epoch()),
                mixed ? "MIXED EPOCHS" : "epochs consistent");
    return mixed ? 1 : 0;
  }

  if (verb == "publish") {
    const std::string model_path = FlagOr(flags, "model", "");
    if (model_path.empty()) return Usage();
    auto model = core::LearnedWmpModel::LoadFromFile(model_path);
    if (!model.ok()) return Fail(model.status());
    const net::FleetRolloutReport report = router.PublishAll(name, *model);
    PrintRollout("publish", report);
    return report.ok ? 0 : 1;
  }

  if (verb == "rollback") {
    const net::FleetRolloutReport report = router.RollbackAll(name);
    PrintRollout("rollback", report);
    return report.ok ? 0 : 1;
  }

  if (verb == "score") {
    const std::string log_path = FlagOr(flags, "log", "");
    if (log_path.empty()) return Usage();
    const int batch_size = std::max(IntFlagOr(flags, "batch", 10), 1);
    const size_t chunk = std::max(IntFlagOr<size_t>(flags, "chunk", 4096),
                                  static_cast<size_t>(batch_size));
    const std::string tenant = FlagOr(flags, "tenant", "wmpctl");
    auto reader = workloads::QueryLogReader::Open(log_path);
    if (!reader.ok()) return Fail(reader.status());
    std::vector<workloads::QueryRecord> window;
    size_t workloads_scored = 0, workload_failures = 0, call_failures = 0;
    double checksum = 0.0;  // order-independent fingerprint of the scores
    Stopwatch wall;
    for (;;) {
      auto appended = reader->ReadChunk(chunk, &window);
      if (!appended.ok()) return Fail(appended.status());
      if (window.empty()) break;
      size_t usable =
          window.size() - window.size() % static_cast<size_t>(batch_size);
      if (reader->exhausted()) usable = window.size();
      if (usable == 0 && !reader->exhausted()) continue;
      if (usable == 0) break;
      const auto batches = engine::MakeConsecutiveBatches(usable, batch_size);
      std::vector<workloads::QueryRecord> scored;
      scored.reserve(usable);
      for (size_t i = 0; i < usable; ++i) {
        scored.push_back(std::move(window[i]));
      }
      window.erase(window.begin(),
                   window.begin() + static_cast<long>(usable));
      auto got = router.ScoreWorkloads(tenant, scored, batches);
      if (!got.ok()) {
        // Every attempt on every node failed; count the whole chunk but
        // keep driving — the fleet may recover mid-log.
        std::fprintf(stderr, "chunk failed after all retries: %s\n",
                     got.status().ToString().c_str());
        call_failures += batches.size();
        continue;
      }
      for (const Result<double>& outcome : *got) {
        workloads_scored++;
        if (outcome.ok()) {
          checksum += *outcome;
        } else {
          workload_failures++;
        }
      }
    }
    const double seconds = wall.ElapsedSeconds();
    const net::FleetRouterCounters counters = router.counters();
    std::printf(
        "fleet scored %zu workloads in %.2fs (%zu workload failures, %zu "
        "lost to dead fleet), score checksum %.6f\n",
        workloads_scored, seconds, workload_failures, call_failures,
        checksum);
    std::printf(
        "  router: %llu calls, %llu retries/failovers, %llu exhausted\n",
        static_cast<unsigned long long>(counters.scores),
        static_cast<unsigned long long>(counters.score_retries),
        static_cast<unsigned long long>(counters.score_failures));
    for (const net::FleetNodeStatus& node : router.Nodes()) {
      std::printf("  %-28s %-8s scores=%llu/%llu\n", node.address.c_str(),
                  net::NodeHealthName(node.health),
                  static_cast<unsigned long long>(node.scores_ok),
                  static_cast<unsigned long long>(node.scores_ok +
                                                  node.scores_failed));
    }
    return (workload_failures == 0 && call_failures == 0) ? 0 : 1;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const auto flags = ParseFlags(argc, argv);
  util::SetDefaultParallelism(IntFlagOr(flags, "threads", 0));
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "evaluate") return CmdEvaluate(flags);
  if (cmd == "predict") return CmdPredict(flags);
  if (cmd == "serve-bench") return CmdServeBench(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "score") return CmdScore(flags);
  if (cmd == "rollback") return CmdRollback(flags);
  if (cmd == "fleet") return CmdFleet(argc, argv, flags);
  return Usage();
}
