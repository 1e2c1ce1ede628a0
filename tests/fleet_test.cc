// End-to-end tests of the fleet tier: the router's epoch bookkeeping,
// the stage/commit/abort control plane on a single node, and
// net::FleetRouter against several in-process reactor nodes — probe-driven
// health states, failover scoring that stays bitwise-equal to the
// single-node reference while a node dies and revives, and the two-phase
// PublishAll/RollbackAll guarantee that a failed rollout leaves every node
// on its prior epoch.

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "engine/batch_scorer.h"
#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/fleet.h"
#include "net/reactor_server.h"
#include "net/wire_client.h"
#include "util/io.h"
#include "util/strings.h"
#include "workloads/dataset.h"

namespace wmp {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::DatasetOptions opt;
    opt.num_queries = 300;
    opt.seed = 71;
    auto d = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    dataset_ = new workloads::Dataset(std::move(*d));
    indices_ =
        new std::vector<uint32_t>(core::AllIndices(dataset_->records.size()));

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

  static std::shared_ptr<const core::LearnedWmpModel> Borrow(
      const core::LearnedWmpModel* model) {
    return {std::shared_ptr<const void>(), model};
  }

  static std::string SocketAddress(const char* tag) {
    return StrFormat("unix:/tmp/wmp_fleet_test.%d.%s.sock",
                     static_cast<int>(::getpid()), tag);
  }

  /// In-process reference predictions of `model` on the shared batch set.
  static std::vector<double> Reference(const core::LearnedWmpModel* model,
                                       const std::vector<core::WorkloadBatch>&
                                           batches) {
    engine::BatchScorer scorer(model);
    auto want = scorer.ScoreWorkloads(dataset_->records, batches);
    EXPECT_TRUE(want.ok());
    return want->predictions;
  }

  /// One predictor node: reactor server + its own registry, the topology
  /// FleetRouter assumes (each node keeps an independent epoch history).
  struct TestNode {
    engine::ScoringService service;
    engine::ModelRegistry registry;
    net::ReactorServer server;
    std::string address;

    TestNode(const core::LearnedWmpModel* model, std::string addr)
        : service({Borrow(model)}),
          server(&service, &registry, "default"),
          address(std::move(addr)) {}
    ~TestNode() { Down(); }

    void Up() {
      ASSERT_TRUE(server.Listen(address).ok());
      ASSERT_TRUE(server.Start().ok());
    }
    void Down() {
      server.Shutdown();
      service.Stop();
    }
  };

  /// Router options every fleet test starts from: no background probe
  /// thread (tests drive ProbeNow for determinism), fast failure
  /// detection, fixed seed.
  static net::FleetRouterOptions TestOptions() {
    net::FleetRouterOptions opts;
    opts.probe_interval_ms = 0;
    opts.connect_timeout_ms = 500;
    opts.request_timeout_ms = 3000;
    opts.down_after_failures = 2;
    opts.backoff_base_ms = 1;  // keep retries fast in tests
    opts.backoff_cap_ms = 4;
    opts.seed = 7;
    return opts;
  }

  static void ExpectCallBitwise(
      const Result<std::vector<Result<double>>>& got,
      const std::vector<double>& want) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want.size());
    for (size_t w = 0; w < want.size(); ++w) {
      ASSERT_TRUE((*got)[w].ok()) << (*got)[w].status().ToString();
      EXPECT_EQ(*(*got)[w], want[w]) << "w=" << w;
    }
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
  static core::LearnedWmpModel* model_;
  static core::LearnedWmpModel* model2_;
};

workloads::Dataset* FleetTest::dataset_ = nullptr;
std::vector<uint32_t>* FleetTest::indices_ = nullptr;
core::LearnedWmpModel* FleetTest::model_ = nullptr;
core::LearnedWmpModel* FleetTest::model2_ = nullptr;

// ---------- Router epoch bookkeeping ----------

TEST_F(FleetTest, RouterEpochsMixedUnknownAndDivergent) {
  // `fresh` is up with nothing published (epoch 0), `pub` serves epoch 1,
  // and nothing ever listens at `ghost`.
  TestNode fresh(model_, SocketAddress("epochs_fresh"));
  TestNode pub(model_, SocketAddress("epochs_pub"));
  ASSERT_TRUE(pub.registry.Record("default", Borrow(model_)).ok());
  fresh.Up();
  pub.Up();
  const std::string ghost = SocketAddress("epochs_ghost");

  // A node never heard from is unknown, not mixed.
  {
    net::FleetRouter router({pub.address, ghost}, TestOptions());
    EXPECT_FALSE(router.EpochsMixed());
    ASSERT_TRUE(router.Start().ok());
    EXPECT_EQ(router.Nodes()[0].observed_epoch, 1u);
    EXPECT_NE(router.Nodes()[1].health, net::NodeHealth::kHealthy);
    EXPECT_FALSE(router.EpochsMixed());
    EXPECT_TRUE(router.DivergentNodes().empty());
    router.Stop();
  }

  net::FleetRouter router({fresh.address, pub.address}, TestOptions());
  EXPECT_EQ(router.target_epoch(), 0u);
  ASSERT_TRUE(router.Start().ok());
  // Epoch 0 is a real observation ("node up, nothing published"), not an
  // unset sentinel: a fresh node among published peers IS a mixed fleet.
  EXPECT_TRUE(router.EpochsMixed());
  // Divergence is against the target, and silent until a rollout sets one.
  EXPECT_TRUE(router.DivergentNodes().empty());
  ASSERT_TRUE(fresh.registry.Record("default", Borrow(model_)).ok());
  router.ProbeNow();
  EXPECT_FALSE(router.EpochsMixed());

  auto report = router.PublishAll("default", *model2_);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(router.target_epoch(), 2u);
  EXPECT_TRUE(router.DivergentNodes().empty());
  EXPECT_FALSE(router.EpochsMixed());

  // A publish straight to one node: the fleet is mixed, and that node
  // diverges from the target.
  ASSERT_TRUE(pub.registry.Record("default", Borrow(model_)).ok());
  router.ProbeNow();
  EXPECT_TRUE(router.EpochsMixed());
  EXPECT_EQ(router.DivergentNodes(), std::vector<std::string>{pub.address});
  // Both nodes on an epoch no rollout set: consistent, yet both diverge.
  ASSERT_TRUE(fresh.registry.Record("default", Borrow(model_)).ok());
  router.ProbeNow();
  EXPECT_FALSE(router.EpochsMixed());
  EXPECT_EQ(router.DivergentNodes().size(), 2u);
  router.Stop();
}

// ---------- Stage / commit / abort on one node ----------

TEST_F(FleetTest, StageCommitAbortLifecycle) {
  TestNode node(model_, SocketAddress("twophase"));
  ASSERT_TRUE(node.registry.Record("default", Borrow(model_)).ok());
  node.Up();
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want2 = Reference(model2_, batches);

  net::WireClient client(node.address);
  auto health = client.Health(41);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->nonce, 41u);
  EXPECT_EQ(health->registry_epoch, 1u);
  EXPECT_EQ(health->staged_ticket, 0u);

  // Stage parks the artifact without installing anything.
  BinaryWriter artifact;
  ASSERT_TRUE(model2_->Serialize(&artifact).ok());
  auto staged = client.Stage("default", artifact.buffer());
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  const uint64_t ticket = staged->ticket;
  EXPECT_GT(ticket, 0u);
  health = client.Health(42);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->registry_epoch, 1u) << "stage must not install";
  EXPECT_EQ(health->staged_ticket, ticket);

  // A commit must name the exact ticket; a mismatch leaves the artifact
  // parked (the coordinator may still commit it correctly).
  auto bad = client.Commit(ticket + 1);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsFailedPrecondition())
      << bad.status().ToString();
  health = client.Health(43);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->staged_ticket, ticket);
  EXPECT_EQ(health->registry_epoch, 1u);

  // The real commit installs the staged bytes bitwise.
  auto committed = client.Commit(ticket);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->registry_epoch, 2u);
  ExpectCallBitwise(client.ScoreWorkloads("t", dataset_->records, batches),
                    want2);
  health = client.Health(44);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->registry_epoch, 2u);
  EXPECT_EQ(health->staged_ticket, 0u) << "commit consumes the ticket";

  // Abort is idempotent; ticket 0 discards whatever is parked.
  auto aborted = client.Abort(0);
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted->had_staged, 0u);
  staged = client.Stage("default", artifact.buffer());
  ASSERT_TRUE(staged.ok());
  aborted = client.Abort(staged->ticket);
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted->had_staged, 1u);
  aborted = client.Abort(staged->ticket);
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted->had_staged, 0u);
  health = client.Health(45);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->registry_epoch, 2u) << "aborts must not change epochs";
}

// ---------- Router: probing + scoring ----------

TEST_F(FleetTest, RouterProbesFleetAndScoresBitwise) {
  std::vector<std::unique_ptr<TestNode>> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<TestNode>(
        model_, SocketAddress(StrFormat("score%d", i).c_str()));
    ASSERT_TRUE(node->registry.Record("default", Borrow(model_)).ok());
    node->Up();
    addresses.push_back(node->address);
    fleet.push_back(std::move(node));
  }
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  net::FleetRouter router(addresses, TestOptions());
  ASSERT_TRUE(router.Start().ok());
  // Start's synchronous sweep already probed every node.
  for (const auto& status : router.Nodes()) {
    EXPECT_EQ(status.health, net::NodeHealth::kHealthy) << status.address;
    EXPECT_EQ(status.observed_epoch, 1u);
    EXPECT_EQ(status.probes_ok, 1u);
  }
  EXPECT_FALSE(router.EpochsMixed());

  // Distinct tenants spread across nodes; every call must be bitwise the
  // single-node reference regardless of which replica served it.
  constexpr int kTenants = 12;
  for (int t = 0; t < kTenants; ++t) {
    ExpectCallBitwise(
        router.ScoreWorkloads(StrFormat("tenant-%d", t), dataset_->records,
                              batches),
        want);
  }
  const auto counters = router.counters();
  EXPECT_EQ(counters.scores, static_cast<uint64_t>(kTenants));
  EXPECT_EQ(counters.score_failures, 0u);
  EXPECT_EQ(counters.score_retries, 0u);
  uint64_t served = 0;
  for (const auto& status : router.Nodes()) served += status.scores_ok;
  EXPECT_EQ(served, static_cast<uint64_t>(kTenants));
  router.Stop();
}

TEST_F(FleetTest, RouterFailsOverOnNodeDeathThenProbeRevives) {
  std::vector<std::unique_ptr<TestNode>> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<TestNode>(
        model_, SocketAddress(StrFormat("fail%d", i).c_str()));
    ASSERT_TRUE(node->registry.Record("default", Borrow(model_)).ok());
    node->Up();
    addresses.push_back(node->address);
    fleet.push_back(std::move(node));
  }
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  net::FleetRouter router(addresses, TestOptions());
  ASSERT_TRUE(router.Start().ok());
  ExpectCallBitwise(router.ScoreWorkloads("warm", dataset_->records, batches),
                    want);

  // Kill the middle node under traffic: every call must still succeed and
  // stay bitwise-correct — a node death costs retries, never a failed
  // client call.
  fleet[1]->Down();
  for (int t = 0; t < 16; ++t) {
    ExpectCallBitwise(
        router.ScoreWorkloads(StrFormat("tenant-%d", t), dataset_->records,
                              batches),
        want);
  }
  const auto counters = router.counters();
  EXPECT_EQ(counters.score_failures, 0u);
  EXPECT_GT(counters.score_retries, 0u)
      << "some tenant must have hashed onto the dead node";
  // After its first failure the node is suspect and healthy replicas
  // absorb the traffic, so only probes accumulate further evidence.
  EXPECT_EQ(router.Nodes()[1].health, net::NodeHealth::kSuspect);
  EXPECT_GT(router.Nodes()[1].scores_failed, 0u);

  // A probe sweep against the still-dead node crosses the failure
  // threshold and takes it down; further sweeps keep it down.
  router.ProbeNow();
  EXPECT_EQ(router.Nodes()[1].health, net::NodeHealth::kDown);
  router.ProbeNow();
  EXPECT_EQ(router.Nodes()[1].health, net::NodeHealth::kDown);

  // Revive it (same address, fresh process-equivalent) — only a probe
  // takes a node out of down, and traffic then uses it again.
  fleet[1] = std::make_unique<TestNode>(model_, addresses[1]);
  ASSERT_TRUE(fleet[1]->registry.Record("default", Borrow(model_)).ok());
  fleet[1]->Up();
  router.ProbeNow();
  EXPECT_EQ(router.Nodes()[1].health, net::NodeHealth::kHealthy);
  EXPECT_EQ(router.Nodes()[1].observed_epoch, 1u);
  const uint64_t served_before = router.Nodes()[1].scores_ok;
  for (int t = 0; t < 16; ++t) {
    ExpectCallBitwise(
        router.ScoreWorkloads(StrFormat("tenant-%d", t), dataset_->records,
                              batches),
        want);
  }
  EXPECT_GT(router.Nodes()[1].scores_ok, served_before)
      << "a revived node must rejoin the rotation";
  EXPECT_EQ(router.counters().score_failures, 0u);
  router.Stop();
}

// ---------- Router: coordinated rollouts ----------

TEST_F(FleetTest, PublishAllTwoPhaseSwapsTheWholeFleetBitwise) {
  std::vector<std::unique_ptr<TestNode>> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<TestNode>(
        model_, SocketAddress(StrFormat("pub%d", i).c_str()));
    ASSERT_TRUE(node->registry.Record("default", Borrow(model_)).ok());
    node->Up();
    addresses.push_back(node->address);
    fleet.push_back(std::move(node));
  }
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want2 = Reference(model2_, batches);

  net::FleetRouter router(addresses, TestOptions());
  ASSERT_TRUE(router.Start().ok());
  auto report = router.PublishAll("default", *model2_);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.epoch, 2u);
  ASSERT_EQ(report.nodes.size(), 3u);
  for (const auto& entry : report.nodes) {
    EXPECT_TRUE(entry.staged) << entry.address;
    EXPECT_TRUE(entry.committed) << entry.address;
    EXPECT_FALSE(entry.aborted);
    EXPECT_FALSE(entry.compensated);
    EXPECT_EQ(entry.epoch, 2u);
  }
  EXPECT_EQ(router.target_epoch(), 2u);
  EXPECT_TRUE(router.DivergentNodes().empty());
  EXPECT_FALSE(router.EpochsMixed());

  // Every node — asked directly, not through the router — now serves the
  // new model bitwise, with nothing left parked.
  for (const auto& address : addresses) {
    net::WireClient direct(address);
    auto health = direct.Health(9);
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->registry_epoch, 2u) << address;
    EXPECT_EQ(health->staged_ticket, 0u) << address;
    ExpectCallBitwise(
        direct.ScoreWorkloads("t", dataset_->records, batches), want2);
  }
  ExpectCallBitwise(router.ScoreWorkloads("t", dataset_->records, batches),
                    want2);
  router.Stop();
}

TEST_F(FleetTest, PublishAllStageFailureLeavesEveryNodeOnPriorEpoch) {
  std::vector<std::unique_ptr<TestNode>> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<TestNode>(
        model_, SocketAddress(StrFormat("pubfail%d", i).c_str()));
    ASSERT_TRUE(node->registry.Record("default", Borrow(model_)).ok());
    node->Up();
    addresses.push_back(node->address);
    fleet.push_back(std::move(node));
  }
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  net::FleetRouter router(addresses, TestOptions());
  ASSERT_TRUE(router.Start().ok());
  // One node down -> the stage phase cannot complete -> the rollout must
  // abort everywhere with NO epoch change anywhere.
  fleet[2]->Down();
  auto report = router.PublishAll("default", *model2_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("stage phase failed"), std::string::npos)
      << report.failure;
  EXPECT_TRUE(report.nodes[0].staged);
  EXPECT_TRUE(report.nodes[0].aborted);
  EXPECT_FALSE(report.nodes[0].committed);
  EXPECT_TRUE(report.nodes[1].staged);
  EXPECT_TRUE(report.nodes[1].aborted);
  EXPECT_FALSE(report.nodes[2].staged);
  EXPECT_FALSE(report.nodes[2].error.empty());

  // Surviving nodes: prior epoch, nothing parked, old model served.
  for (int i = 0; i < 2; ++i) {
    net::WireClient direct(addresses[i]);
    auto health = direct.Health(5);
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->registry_epoch, 1u) << addresses[i];
    EXPECT_EQ(health->staged_ticket, 0u) << addresses[i];
    ExpectCallBitwise(
        direct.ScoreWorkloads("t", dataset_->records, batches), want);
  }
  EXPECT_EQ(router.counters().publishes, 1u);
  router.Stop();
}

TEST_F(FleetTest, RollbackAllRestoresThePreviousEpochFleetWide) {
  std::vector<std::unique_ptr<TestNode>> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 3; ++i) {
    // Each node serves model2 at epoch 2 with model_ at epoch 1 beneath.
    auto node = std::make_unique<TestNode>(
        model2_, SocketAddress(StrFormat("rb%d", i).c_str()));
    ASSERT_TRUE(node->registry.Record("default", Borrow(model_)).ok());
    ASSERT_TRUE(node->registry.Record("default", Borrow(model2_)).ok());
    node->Up();
    addresses.push_back(node->address);
    fleet.push_back(std::move(node));
  }
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  net::FleetRouter router(addresses, TestOptions());
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(router.Nodes()[0].observed_epoch, 2u);
  auto report = router.RollbackAll("default");
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(router.target_epoch(), 1u);
  EXPECT_TRUE(router.DivergentNodes().empty());
  for (const auto& address : addresses) {
    net::WireClient direct(address);
    ExpectCallBitwise(
        direct.ScoreWorkloads("t", dataset_->records, batches), want);
  }
  EXPECT_EQ(router.counters().rollbacks, 1u);
  router.Stop();
}

}  // namespace
}  // namespace wmp
