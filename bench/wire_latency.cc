// Out-of-process serving benchmark: what does the wire add on top of the
// in-process ScoringService, and do the serving guarantees survive the
// process boundary?
//
//   inproc          C closed-loop clients submit one workload at a time
//                   straight into engine::ScoringService — the PR 3
//                   serving baseline the wire path is measured against.
//   remote          closed-loop clients, each with its own net::WireClient,
//                   against a net::ReactorServer on a loopback Unix socket
//                   fronting an identical service: one workload per score
//                   frame and one frame in flight, so p50/p99 isolates the
//                   per-request wire cost (frame codec + syscalls + record
//                   serialization).
//                   Swept over connection counts.
//   remote_batched  the wire API used as intended — each score frame
//                   carries the client's whole workload slice, so framing
//                   and record shipping amortize across the batch. This is
//                   the qps number an admission controller integration
//                   should expect.
//   publish_rollback under concurrent remote score traffic, publish a
//                   retrained model over the wire (PublishAll across all
//                   shards + registry record), verify post-swap remote
//                   scores match the new model's own in-process
//                   BatchScorer bitwise — then Rollback and verify the
//                   PREVIOUS epoch's scores come back bitwise. Zero failed
//                   requests allowed anywhere.
//   pipelined       net::WireClient::SubmitScore/Wait against the same
//                   server: one workload per score frame with a sliding
//                   16-deep in-flight window per connection (a full window
//                   waits on its oldest request), so round trips overlap
//                   instead of serializing. Same connection sweep
//                   as `remote`, whose qps it is compared against at the
//                   top connection count.
//
// Every remote prediction is compared bitwise against the in-process
// BatchScorer on the same model: the wire must be a transport, not a
// perturbation. Output: human tables + JSON records (--json=PATH), with
// --quick shrinking the sweep to a CI smoke size. Nonzero exit on any
// error, failed request, or bitwise mismatch.

#include <atomic>
#include <cstdio>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "engine/batch_scorer.h"
#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/reactor_server.h"
#include "net/wire_client.h"
#include "util/stats.h"
#include "util/sync.h"
#include "util/timer.h"

using namespace wmp;

namespace {

struct WireRow {
  std::string mode;
  int clients = 0;
  size_t workloads = 0;
  size_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t errors = 0;
  bool bitwise_identical = true;
};

std::string ToJson(const WireRow& r) {
  return StrFormat(
      "{\"figure\":\"wire_latency\",\"mode\":\"%s\",\"clients\":%d,"
      "\"workloads\":%zu,\"queries\":%zu,\"seconds\":%.3f,"
      "\"queries_per_sec\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
      "\"errors\":%llu,\"bitwise_identical\":%s}",
      r.mode.c_str(), r.clients, r.workloads, r.queries, r.seconds, r.qps,
      r.p50_us, r.p99_us, static_cast<unsigned long long>(r.errors),
      r.bitwise_identical ? "true" : "false");
}

size_t CountQueries(const std::vector<core::WorkloadBatch>& batches) {
  size_t n = 0;
  for (const auto& b : batches) n += b.query_indices.size();
  return n;
}

// Client c owns workloads c, c+clients, ... — a deterministic partition so
// per-workload predictions can be compared against the reference.
std::vector<size_t> SliceFor(int c, int clients, size_t n) {
  std::vector<size_t> slice;
  for (size_t w = static_cast<size_t>(c); w < n;
       w += static_cast<size_t>(clients)) {
    slice.push_back(w);
  }
  return slice;
}

struct DriveOut {
  double seconds = 0.0;
  std::vector<double> latencies_us;
  std::vector<double> predictions;  // per workload (last pass wins)
  uint64_t errors = 0;
};

// What an admission controller actually puts in a per-workload frame:
// just the member queries' scoring-relevant content (the wire format
// never ships plans/ASTs). Fingerprints are preserved so the server's
// caches key identically to the full-log requests.
std::vector<workloads::QueryRecord> CloneMembersForWire(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& member_indices) {
  std::vector<workloads::QueryRecord> out;
  out.reserve(member_indices.size());
  for (uint32_t qi : member_indices) {
    const workloads::QueryRecord& r = records[qi];
    workloads::QueryRecord c;
    c.sql_text = r.sql_text;
    c.plan_features = r.plan_features;
    c.actual_memory_mb = r.actual_memory_mb;
    c.dbms_estimate_mb = r.dbms_estimate_mb;
    c.family_id = r.family_id;
    c.content_fingerprint = r.content_fingerprint;
    out.push_back(std::move(c));
  }
  return out;
}

// Drives `clients` threads of remote traffic for `passes` passes.
// per_call_workloads == 1 sends one workload per frame (latency mode);
// 0 sends the whole slice per frame (batched mode).
DriveOut DriveRemote(const std::string& address,
                     const std::vector<workloads::QueryRecord>& records,
                     const std::vector<core::WorkloadBatch>& batches,
                     int clients, int passes, size_t per_call_workloads) {
  DriveOut out;
  out.predictions.assign(batches.size(), 0.0);
  std::vector<std::vector<double>> per_client_lat(
      static_cast<size_t>(clients));
  std::atomic<uint64_t> errors{0};
  util::Latch start(static_cast<size_t>(clients) + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::WireClient client(address);
      auto& lat = per_client_lat[static_cast<size_t>(c)];
      const std::vector<size_t> slice = SliceFor(c, clients, batches.size());
      const std::string tenant = StrFormat("wire-client-%d", c);
      // Per-workload frames ship only that workload's member records
      // (prepared outside the timed region); the batched mode ships the
      // shared log once per frame and indexes into it.
      std::vector<std::vector<workloads::QueryRecord>> member_records;
      std::vector<core::WorkloadBatch> member_batch(1);
      if (per_call_workloads == 1) {
        member_records.reserve(slice.size());
        for (size_t w : slice) {
          member_records.push_back(
              CloneMembersForWire(records, batches[w].query_indices));
        }
      }
      start.ArriveAndWait();
      for (int pass = 0; pass < passes; ++pass) {
        if (per_call_workloads == 1) {
          for (size_t i = 0; i < slice.size(); ++i) {
            member_batch[0].query_indices.resize(member_records[i].size());
            for (uint32_t q = 0; q < member_records[i].size(); ++q) {
              member_batch[0].query_indices[q] = q;
            }
            Stopwatch sw;
            auto got = client.ScoreWorkloads(tenant, member_records[i],
                                             member_batch);
            lat.push_back(sw.ElapsedMicros());
            if (!got.ok() || !(*got)[0].ok()) {
              errors.fetch_add(1, std::memory_order_relaxed);
            } else {
              out.predictions[slice[i]] = *(*got)[0];
            }
          }
          continue;
        }
        const size_t group = slice.size();
        for (size_t begin = 0; begin < slice.size(); begin += group) {
          const size_t end = std::min(begin + group, slice.size());
          std::vector<core::WorkloadBatch> call_batches;
          call_batches.reserve(end - begin);
          for (size_t i = begin; i < end; ++i) {
            core::WorkloadBatch b;
            b.query_indices = batches[slice[i]].query_indices;
            call_batches.push_back(std::move(b));
          }
          Stopwatch sw;
          auto got = client.ScoreWorkloads(tenant, records, call_batches);
          lat.push_back(sw.ElapsedMicros());
          if (!got.ok()) {
            errors.fetch_add(end - begin, std::memory_order_relaxed);
            continue;
          }
          for (size_t i = begin; i < end; ++i) {
            const auto& outcome = (*got)[i - begin];
            if (outcome.ok()) {
              out.predictions[slice[i]] = *outcome;
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

// Drives `clients` WireClient connections against the server: one
// workload per score frame, a sliding window of `window` requests in flight
// per connection. Once the window is full the client waits on its oldest
// request before it submits the next, so each latency runs from a request's
// own submit to its own answer.
DriveOut DrivePipelined(const std::string& address,
                        const std::vector<workloads::QueryRecord>& records,
                        const std::vector<core::WorkloadBatch>& batches,
                        int clients, int passes, size_t window) {
  DriveOut out;
  out.predictions.assign(batches.size(), 0.0);
  std::vector<std::vector<double>> per_client_lat(
      static_cast<size_t>(clients));
  std::atomic<uint64_t> errors{0};
  util::Latch start(static_cast<size_t>(clients) + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::WireClientOptions copt;
      copt.max_inflight = window;
      net::WireClient client(address, copt);
      auto& lat = per_client_lat[static_cast<size_t>(c)];
      const std::vector<size_t> slice = SliceFor(c, clients, batches.size());
      const std::string tenant = StrFormat("pipelined-client-%d", c);
      // Per-workload payloads prepared outside the timed region, exactly
      // like the plain per-request mode, so the comparison isolates the
      // framing.
      std::vector<std::vector<workloads::QueryRecord>> member_records;
      std::vector<std::vector<core::WorkloadBatch>> member_batches;
      member_records.reserve(slice.size());
      member_batches.reserve(slice.size());
      for (size_t w : slice) {
        member_records.push_back(
            CloneMembersForWire(records, batches[w].query_indices));
        core::WorkloadBatch b;
        b.query_indices.resize(member_records.back().size());
        for (uint32_t q = 0; q < b.query_indices.size(); ++q) {
          b.query_indices[q] = q;
        }
        member_batches.push_back({std::move(b)});
      }
      struct InFlight {
        size_t w = 0;
        Stopwatch sw;
        net::WireClient::Pending response;
      };
      std::deque<InFlight> inflight;
      const auto harvest_oldest = [&] {
        InFlight& f = inflight.front();
        auto got = client.Wait(std::move(f.response));
        lat.push_back(f.sw.ElapsedMicros());
        if (!got.ok() || !(*got)[0].ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          out.predictions[f.w] = *(*got)[0];
        }
        inflight.pop_front();
      };
      start.ArriveAndWait();
      for (int pass = 0; pass < passes; ++pass) {
        for (size_t i = 0; i < slice.size(); ++i) {
          if (inflight.size() == window) harvest_oldest();
          InFlight f;
          f.w = slice[i];
          auto submitted = client.SubmitScore(tenant, member_records[i],
                                              member_batches[i]);
          if (!submitted.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          f.response = std::move(*submitted);
          inflight.push_back(std::move(f));
        }
      }
      while (!inflight.empty()) harvest_oldest();
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

bool BitwiseEqual(const std::vector<double>& got,
                  const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) return false;
  }
  return true;
}

WireRow MakeDriveRow(const std::string& mode, int clients, int passes,
                     const std::vector<core::WorkloadBatch>& batches,
                     DriveOut d, const std::vector<double>& want) {
  WireRow row;
  row.mode = mode;
  row.clients = clients;
  row.workloads = batches.size() * static_cast<size_t>(passes);
  row.queries = CountQueries(batches) * static_cast<size_t>(passes);
  row.seconds = d.seconds;
  row.qps = d.seconds > 0 ? static_cast<double>(row.queries) / d.seconds : 0.0;
  row.p50_us = util::PercentileInPlace(&d.latencies_us, 0.50);
  row.p99_us = util::PercentileInPlace(&d.latencies_us, 0.99);
  row.errors = d.errors;
  row.bitwise_identical = BitwiseEqual(d.predictions, want);
  return row;
}

// Publish model2 over the wire under concurrent score traffic, verify the
// post-swap steady state is model2 bitwise, roll back, verify model1's
// scores return bitwise.
WireRow RunPublishRollback(const std::string& address,
                           const std::vector<workloads::QueryRecord>& records,
                           const std::vector<core::WorkloadBatch>& batches,
                           const core::LearnedWmpModel& swap_model,
                           const std::vector<double>& want1,
                           const std::vector<double>& want2, int clients) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bg_errors{0};
  // Background clients keep scoring across both swaps; their predictions
  // are intentionally unchecked (they legitimately straddle epochs) but
  // must never FAIL.
  std::vector<std::thread> background;
  for (int c = 0; c < clients; ++c) {
    background.emplace_back([&, c] {
      net::WireClient client(address);
      const auto slice = SliceFor(c, clients, batches.size());
      const std::string tenant = StrFormat("bg-client-%d", c);
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t w : slice) {
          auto got = client.ScoreWorkloads(tenant, records, {batches[w]});
          if (!got.ok() || !(*got)[0].ok()) {
            bg_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  WireRow row;
  row.mode = "publish_rollback";
  row.clients = clients;
  row.workloads = batches.size() * 2;
  row.queries = CountQueries(batches) * 2;
  Stopwatch wall;
  net::WireClient control(address);
  uint64_t control_errors = 0;
  bool bitwise = true;
  // Publish the retrain over the wire, then the post-swap steady state
  // must be the new model, bitwise, as served to a fresh client.
  auto epoch2 = control.Publish("bench", swap_model);
  if (!epoch2.ok()) {
    std::cerr << "publish failed: " << epoch2.status() << "\n";
    ++control_errors;
  }
  auto after_publish = control.ScoreWorkloads("verify", records, batches);
  if (!after_publish.ok()) {
    ++control_errors;
  } else {
    std::vector<double> got(batches.size(), 0.0);
    for (size_t w = 0; w < batches.size(); ++w) {
      if ((*after_publish)[w].ok()) {
        got[w] = *(*after_publish)[w];
      } else {
        ++control_errors;
      }
    }
    if (!BitwiseEqual(got, want2)) bitwise = false;
  }
  // Roll back: the PREVIOUS epoch's scores must return exactly.
  auto epoch1 = control.Rollback("bench");
  if (!epoch1.ok()) {
    std::cerr << "rollback failed: " << epoch1.status() << "\n";
    ++control_errors;
  }
  auto after_rollback = control.ScoreWorkloads("verify", records, batches);
  if (!after_rollback.ok()) {
    ++control_errors;
  } else {
    std::vector<double> got(batches.size(), 0.0);
    for (size_t w = 0; w < batches.size(); ++w) {
      if ((*after_rollback)[w].ok()) {
        got[w] = *(*after_rollback)[w];
      } else {
        ++control_errors;
      }
    }
    if (!BitwiseEqual(got, want1)) bitwise = false;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : background) t.join();
  row.seconds = wall.ElapsedSeconds();
  row.qps = 0.0;  // correctness phase, not a throughput claim
  row.errors = control_errors + bg_errors.load();
  row.bitwise_identical = bitwise;

  TablePrinter table("wire_latency — PublishAll + Rollback over the wire");
  table.SetHeader({"publish epoch", "rollback epoch", "bg errors",
                   "bitwise (swap/rollback)"});
  table.AddRow(
      {epoch2.ok()
           ? StrFormat("%llu", static_cast<unsigned long long>(*epoch2))
           : "FAILED",
       epoch1.ok()
           ? StrFormat("%llu", static_cast<unsigned long long>(*epoch1))
           : "FAILED",
       StrFormat("%llu", static_cast<unsigned long long>(bg_errors.load())),
       bitwise ? "yes" : "NO"});
  table.Print(std::cout);
  std::cout << "\n";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner(
      "wire_latency",
      "out-of-process serving: wire protocol vs in-process service", args);

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
  auto model1 = core::LearnedWmpModel::Train(
      data->dataset.records, data->train_indices, *data->dataset.generator,
      lopt);
  if (!model1.ok()) {
    std::cerr << "train failed: " << model1.status() << "\n";
    return 1;
  }
  core::LearnedWmpOptions lopt2 = lopt;
  lopt2.seed = cfg.seed + 1;  // a genuinely different retrain
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
  auto m1 = std::make_shared<const core::LearnedWmpModel>(std::move(*model1));
  auto m2 = std::make_shared<const core::LearnedWmpModel>(std::move(*model2));

  // In-process bitwise references for both models.
  engine::BatchScorer ref1(m1), ref2(m2);
  auto want1 = ref1.ScoreWorkloads(records, batches);
  auto want2 = ref2.ScoreWorkloads(records, batches);
  if (!want1.ok() || !want2.ok()) {
    std::cerr << "reference scoring failed\n";
    return 1;
  }

  const int clients = args.quick ? 2 : 4;
  const int passes = args.quick ? 2 : 5;
  std::vector<WireRow> rows;

  // --- inproc: closed-loop clients straight into the service ---
  {
    engine::ScoringService service({m1});
    std::vector<std::vector<double>> per_client_lat(
        static_cast<size_t>(clients));
    std::vector<double> predictions(batches.size(), 0.0);
    std::atomic<uint64_t> errors{0};
    util::Latch start(static_cast<size_t>(clients) + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto& lat = per_client_lat[static_cast<size_t>(c)];
        const auto slice = SliceFor(c, clients, batches.size());
        const std::string tenant = StrFormat("inproc-client-%d", c);
        start.ArriveAndWait();
        for (int pass = 0; pass < passes; ++pass) {
          for (size_t w : slice) {
            Stopwatch sw;
            auto got =
                service.Submit(tenant, records, batches[w].query_indices)
                    .get();
            lat.push_back(sw.ElapsedMicros());
            if (got.ok()) {
              predictions[w] = *got;
            } else {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    Stopwatch wall;
    start.ArriveAndWait();
    for (auto& t : threads) t.join();
    WireRow row;
    row.mode = "inproc";
    row.clients = clients;
    row.seconds = wall.ElapsedSeconds();
    service.Stop();
    row.workloads = batches.size() * static_cast<size_t>(passes);
    row.queries = CountQueries(batches) * static_cast<size_t>(passes);
    row.qps = row.seconds > 0
                  ? static_cast<double>(row.queries) / row.seconds
                  : 0.0;
    std::vector<double> lat;
    for (auto& v : per_client_lat) lat.insert(lat.end(), v.begin(), v.end());
    row.p50_us = util::PercentileInPlace(&lat, 0.50);
    row.p99_us = util::PercentileInPlace(&lat, 0.99);
    row.errors = errors.load();
    row.bitwise_identical = BitwiseEqual(predictions, want1->predictions);
    rows.push_back(row);
  }

  // --- remote modes: a real server on a loopback Unix socket ---
  const std::string address =
      StrFormat("unix:/tmp/wmp_wire_latency.%d.sock",
                static_cast<int>(::getpid()));
  engine::ScoringService service({m1});
  service.SetWarmCorpus(&records);
  engine::ModelRegistry registry;
  if (auto rec = registry.Record("bench", m1); !rec.ok()) {
    std::cerr << "registry record failed: " << rec.status() << "\n";
    return 1;
  }
  net::ReactorServer server(&service, &registry, "bench");
  if (Status st = server.Listen(address); !st.ok()) {
    std::cerr << "listen failed: " << st << "\n";
    return 1;
  }
  if (Status st = server.Start(); !st.ok()) {
    std::cerr << "start failed: " << st << "\n";
    return 1;
  }

  rows.push_back(MakeDriveRow(
      "remote_batched", clients, passes, batches,
      DriveRemote(address, records, batches, clients, passes, 0),
      want1->predictions));

  // --- publish + rollback under concurrent remote traffic ---
  rows.push_back(RunPublishRollback(address, records, batches, *m2,
                                    want1->predictions, want2->predictions,
                                    clients));

  // --- one request at a time vs a window of them: connection sweep ---
  // Both modes send one workload per frame over the same server, so the
  // only difference at each sweep point is the in-flight window.
  const std::vector<int> sweep =
      args.quick ? std::vector<int>{2, 8} : std::vector<int>{1, 2, 4, 8};
  const size_t kWindow = 16;
  double remote_qps_top = 0.0, pipelined_qps_top = 0.0;
  for (int n : sweep) {
    WireRow remote_row = MakeDriveRow(
        "remote", n, passes, batches,
        DriveRemote(address, records, batches, n, passes, 1),
        want1->predictions);
    WireRow pipelined_row = MakeDriveRow(
        "pipelined", n, passes, batches,
        DrivePipelined(address, records, batches, n, passes, kWindow),
        want1->predictions);
    remote_qps_top = remote_row.qps;  // the last sweep point wins
    pipelined_qps_top = pipelined_row.qps;
    rows.push_back(std::move(remote_row));
    rows.push_back(std::move(pipelined_row));
  }
  if (remote_qps_top > 0) {
    std::printf(
        "pipelined at %d connections: %.0f q/s vs one at a time "
        "%.0f q/s — %.2fx (window %zu)\n\n",
        sweep.back(), pipelined_qps_top, remote_qps_top,
        pipelined_qps_top / remote_qps_top, kWindow);
  }

  server.Shutdown();
  service.Stop();

  TablePrinter table("wire_latency — in-process vs wire");
  table.SetHeader({"mode", "clients", "qps", "p50 us", "p99 us", "errors",
                   "bitwise"});
  for (const WireRow& r : rows) {
    table.AddRow({r.mode, StrFormat("%d", r.clients),
                  StrFormat("%.0f", r.qps), StrFormat("%.0f", r.p50_us),
                  StrFormat("%.0f", r.p99_us),
                  StrFormat("%llu", static_cast<unsigned long long>(r.errors)),
                  r.bitwise_identical ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "\n";

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

  for (const WireRow& r : rows) {
    if (r.errors != 0 || !r.bitwise_identical) {
      std::cerr << "wire_latency: mode " << r.mode << " had " << r.errors
                << " errors (bitwise "
                << (r.bitwise_identical ? "ok" : "BROKEN") << ")\n";
      return 1;
    }
  }
  return 0;
}
