// Remote serving — the out-of-process deployment story, end to end.
//
// examples/online_serving.cpp shows the IN-process serving layer; this
// example adds the process boundary a real DBMS integration has: the
// predictor runs behind a socket (net::ReactorServer) and the admission
// controller talks to it with net::WireClient — score a workload before
// admitting it, retrain and publish without restarting, roll back a bad
// model in one call.
//
// For a single self-contained binary the "server process" here is a
// server on a loopback Unix socket inside this process; `wmpctl serve`
// is the same stack as an actual daemon. The flow:
//
//   1. Train a model, stand up ScoringService + ModelRegistry +
//      ReactorServer.
//   2. A client connects and scores workloads over the wire — predictions
//      are bitwise what an in-process BatchScorer computes.
//   3. Retrain and Publish() the artifact over the wire: every shard
//      swaps atomically, the registry records the new epoch, and the
//      template cache re-warms in the background.
//   4. The new model misbehaves? Rollback() restores the previous epoch —
//      and its exact scores.
//
// Run: ./build/remote_serving

#include <cstdio>
#include <unistd.h>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "engine/batch_scorer.h"
#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/reactor_server.h"
#include "net/wire_client.h"
#include "util/strings.h"
#include "workloads/dataset.h"

using namespace wmp;

int main() {
  // --- 1. Train and stand up the serving stack -------------------------
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
  auto trained = core::LearnedWmpModel::Train(
      dataset->records, core::AllIndices(dataset->records.size()),
      *dataset->generator, opt);
  if (!trained.ok()) {
    std::fprintf(stderr, "train: %s\n", trained.status().ToString().c_str());
    return 1;
  }
  auto model =
      std::make_shared<const core::LearnedWmpModel>(std::move(*trained));

  engine::ScoringService service({model});
  service.SetWarmCorpus(&dataset->records);  // publishes re-warm the cache
  engine::ModelRegistry registry;
  if (!registry.Record("tpcc", model).ok()) return 1;

  net::ReactorServer server(&service, &registry, "tpcc");
  const std::string address =
      StrFormat("unix:/tmp/wmp_remote_serving.%d.sock",
                static_cast<int>(::getpid()));
  if (Status st = server.Listen(address); !st.ok()) {
    std::fprintf(stderr, "listen: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("predictor serving on %s\n\n", server.address().c_str());

  // --- 2. The admission controller scores over the wire ----------------
  net::WireClient client(address);
  const auto batches =
      engine::MakeConsecutiveBatches(dataset->records.size(), 10);
  auto remote = client.ScoreWorkloads("controller", dataset->records, batches);
  if (!remote.ok()) {
    std::fprintf(stderr, "score: %s\n", remote.status().ToString().c_str());
    return 1;
  }
  engine::BatchScorer local(model);
  auto reference = local.ScoreWorkloads(dataset->records, batches);
  size_t mismatches = 0;
  for (size_t w = 0; w < batches.size(); ++w) {
    if (!(*remote)[w].ok() || *(*remote)[w] != reference->predictions[w]) {
      ++mismatches;
    }
  }
  std::printf("scored %zu workloads remotely; first prediction %.1f MB; "
              "%zu differ from in-process scoring (must be 0)\n",
              batches.size(), *(*remote)[0], mismatches);

  // --- 3. Retrain + publish over the wire ------------------------------
  core::LearnedWmpOptions opt2 = opt;
  opt2.seed = 99;  // a genuinely different retrain
  auto retrained = core::LearnedWmpModel::Train(
      dataset->records, core::AllIndices(dataset->records.size()),
      *dataset->generator, opt2);
  if (!retrained.ok()) return 1;
  auto epoch = client.Publish("tpcc", *retrained);
  if (!epoch.ok()) {
    std::fprintf(stderr, "publish: %s\n", epoch.status().ToString().c_str());
    return 1;
  }
  auto after = client.ScoreWorkloads("controller", dataset->records, batches);
  std::printf("published retrain as registry epoch %llu; workload 0 now "
              "predicts %.1f MB\n",
              static_cast<unsigned long long>(*epoch),
              after.ok() && (*after)[0].ok() ? *(*after)[0] : -1.0);

  // --- 4. Roll it back -------------------------------------------------
  auto back = client.Rollback("tpcc");
  if (!back.ok()) {
    std::fprintf(stderr, "rollback: %s\n", back.status().ToString().c_str());
    return 1;
  }
  auto restored =
      client.ScoreWorkloads("controller", dataset->records, batches);
  if (!restored.ok()) {
    std::fprintf(stderr, "post-rollback score: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }
  size_t drift = 0;
  for (size_t w = 0; w < batches.size(); ++w) {
    if (!(*restored)[w].ok() ||
        *(*restored)[w] != reference->predictions[w]) {
      ++drift;
    }
  }
  std::printf("rolled back to epoch %llu: %zu workloads differ from the "
              "original model (must be 0)\n",
              static_cast<unsigned long long>(*back), drift);

  auto stats = client.Stats();
  if (stats.ok()) {
    std::printf("\nserver: %llu frames over %llu connections, %llu template "
                "entries re-warmed across the swaps\n",
                static_cast<unsigned long long>(stats->server.frames_served),
                static_cast<unsigned long long>(
                    stats->server.connections_accepted),
                static_cast<unsigned long long>(
                    stats->service.template_entries_warmed));
  }
  server.Shutdown();
  service.Stop();
  return mismatches == 0 && drift == 0 ? 0 : 1;
}
