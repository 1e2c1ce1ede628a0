// End-to-end tests of the event-loop serving stack: net::ReactorServer
// driven by net::WireClient — blocking calls, a window of correlated score
// requests, one client shared by many threads — every score gated bitwise
// against in-process engine::BatchScorer, and the reactor's transport edge
// cases: fragmented frames, slow-reader backpressure, oversize/malformed
// frame isolation, idle reaping, and publish/rollback under live traffic.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "engine/batch_scorer.h"
#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/frame.h"
#include "net/reactor_server.h"
#include "net/socket.h"
#include "net/wire_client.h"
#include "util/io.h"
#include "util/strings.h"
#include "workloads/dataset.h"

namespace wmp {
namespace {

class ReactorTest : public ::testing::Test {
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
    return StrFormat("unix:/tmp/wmp_reactor_test.%d.%s.sock",
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

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
  static core::LearnedWmpModel* model_;
  static core::LearnedWmpModel* model2_;
};

workloads::Dataset* ReactorTest::dataset_ = nullptr;
std::vector<uint32_t>* ReactorTest::indices_ = nullptr;
core::LearnedWmpModel* ReactorTest::model_ = nullptr;
core::LearnedWmpModel* ReactorTest::model2_ = nullptr;

// ---------- Basic equivalence: blocking client against the reactor ----------

TEST_F(ReactorTest, BlockingClientScoresBitwiseEqualThroughReactor) {
  engine::ScoringService service({Borrow(model_)});
  engine::ModelRegistry registry;
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("equiv");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  net::WireClient client(address);
  ASSERT_TRUE(client.Ping().ok());
  auto got = client.ScoreWorkloads("t", dataset_->records, batches);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), batches.size());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE((*got)[w].ok());
    EXPECT_EQ(*(*got)[w], want[w]) << "w=" << w;
  }
  server.Shutdown();
  service.Stop();
}

TEST_F(ReactorTest, StartNeedsListenAndRunsOneLoop) {
  engine::ScoringService service({Borrow(model_)});
  engine::ModelRegistry registry;
  net::ReactorServer server(&service, &registry, "default");
  EXPECT_TRUE(server.Start().IsFailedPrecondition());  // before Listen
  const std::string address = SocketAddress("start");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.Start().IsFailedPrecondition());  // already running
  net::WireClient client(address);
  EXPECT_TRUE(client.Ping().ok());
  client.Close();
  server.Shutdown();
  server.Shutdown();  // idempotent
  service.Stop();
}

// ---------- Incremental reassembly ----------

TEST_F(ReactorTest, ByteAtATimeFramesReassembleCorrectly) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("dribble");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectTo(address);
  ASSERT_TRUE(fd.ok());
  // A ping and then a real score request, every byte its own write(2) —
  // the kernel is free to fragment like this and so is a hostile peer.
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 30);
  const std::vector<double> want = Reference(model_, batches);
  const std::string wire =
      net::EncodeFrame(net::FrameType::kPing, 6, "fragmented") +
      net::EncodeFrame(
          net::FrameType::kScoreRequest, 7,
          net::EncodeScoreRequest("t", dataset_->records, batches));
  for (char byte : wire) {
    ASSERT_EQ(::write(*fd, &byte, 1), 1);
  }
  auto pong = net::ReadFrame(*fd);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, net::FrameType::kPong);
  EXPECT_EQ(pong->id, 6u);
  EXPECT_EQ(pong->payload, "fragmented");
  auto response = net::ReadFrame(*fd);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->type, net::FrameType::kScoreResponse);
  EXPECT_EQ(response->id, 7u);
  auto decoded = net::DecodeScoreResponse(response->payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), batches.size());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE(decoded->ok[w]);
    EXPECT_EQ(decoded->predictions[w], want[w]);
  }
  net::CloseConnection(*fd);
  server.Shutdown();
  service.Stop();
}

// ---------- Backpressure ----------

TEST_F(ReactorTest, SlowReaderTripsBackpressureWithoutLosingFrames) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServerOptions options;
  options.write_high_watermark = 4096;  // tiny: easy to trip
  net::ReactorServer server(&service, nullptr, "default", options);
  const std::string address = SocketAddress("slow");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectTo(address);
  ASSERT_TRUE(fd.ok());
  // 80 pings of 8 KB echo 640 KB back — past any socket buffer, so with
  // the reader idle the server's write buffer must cross the watermark
  // and pause reads. The writer thread outruns the reader on purpose.
  constexpr int kPings = 80;
  const std::string payload(8192, 'x');
  std::thread writer([&] {
    for (int i = 0; i < kPings; ++i) {
      ASSERT_TRUE(
          net::WriteFrame(*fd, net::FrameType::kPing, i + 1, payload).ok());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < kPings; ++i) {
    auto pong = net::ReadFrame(*fd);
    ASSERT_TRUE(pong.ok()) << "pong " << i << ": "
                           << pong.status().ToString();
    EXPECT_EQ(pong->type, net::FrameType::kPong);
    EXPECT_EQ(pong->payload.size(), payload.size());
  }
  writer.join();
  EXPECT_GE(server.stats().backpressure_pauses, 1u)
      << "640 KB of unread echo must cross a 4 KB watermark";
  net::CloseConnection(*fd);
  server.Shutdown();
  service.Stop();
}

// ---------- Hostile input isolation ----------

TEST_F(ReactorTest, OversizeFrameRejectedWithoutStallingOthers) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("oversize");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  // Connection A announces a 65 MB payload — only the header bytes ever
  // travel. The reactor must reject from the header alone (no buffering
  // until the announced bytes arrive, which they never would).
  auto bad = net::ConnectTo(address);
  ASSERT_TRUE(bad.ok());
  std::string header =
      net::EncodeFrame(net::FrameType::kPing, 1, "")
          .substr(0, net::kFrameHeaderBytes - 4);
  const uint32_t huge = 65u << 20;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  ASSERT_EQ(::write(*bad, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));

  // Connection B scores normally while A's rejection is in flight.
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 25);
  const std::vector<double> want = Reference(model_, batches);
  net::WireClient good(address);
  auto got = good.ScoreWorkloads("t", dataset_->records, batches);
  ASSERT_TRUE(got.ok());
  for (size_t w = 0; w < batches.size(); ++w) {
    ASSERT_TRUE((*got)[w].ok());
    EXPECT_EQ(*(*got)[w], want[w]);
  }

  auto error = net::ReadFrame(*bad);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, net::FrameType::kError);
  // The offending connection is closed after the error.
  auto eof = net::ReadFrame(*bad);
  EXPECT_TRUE(eof.status().IsNotFound()) << eof.status().ToString();
  net::CloseConnection(*bad);
  EXPECT_GE(server.stats().wire.protocol_errors, 1u);
  server.Shutdown();
  service.Stop();
}

TEST_F(ReactorTest, MalformedFrameKillsOneConnectionLeavesOthersLive) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("garbage");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  // A long-lived well-behaved connection, opened FIRST.
  auto good = net::ConnectTo(address);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(
      net::WriteFrame(*good, net::FrameType::kPing, 1, "before").ok());
  ASSERT_TRUE(net::ReadFrame(*good).ok());

  // Garbage magic on a second connection: one kError, then close.
  auto bad = net::ConnectTo(address);
  ASSERT_TRUE(bad.ok());
  const std::string garbage = "GARBAGE-NOT-A-FRAME";
  ASSERT_EQ(::write(*bad, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  auto error = net::ReadFrame(*bad);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, net::FrameType::kError);
  auto eof = net::ReadFrame(*bad);
  EXPECT_TRUE(eof.status().IsNotFound());
  net::CloseConnection(*bad);

  // The well-behaved connection never noticed.
  ASSERT_TRUE(net::WriteFrame(*good, net::FrameType::kPing, 2, "after").ok());
  auto pong = net::ReadFrame(*good);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->payload, "after");
  net::CloseConnection(*good);
  server.Shutdown();
  service.Stop();
}

// ---------- Concurrency sweep ----------

TEST_F(ReactorTest, SixtyFourConnectionsScoreBitwiseEqual) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("sweep");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 15);
  const std::vector<double> want = Reference(model_, batches);

  // 8 threads x 8 clients = 64 distinct connections; every one must get
  // bitwise-identical scores. Failures are counted, not asserted, off the
  // main thread (gtest asserts are not thread-safe).
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int c = 0; c < 8; ++c) {
        net::WireClient client(address);
        auto got = client.ScoreWorkloads("t", dataset_->records, batches);
        if (!got.ok() || got->size() != batches.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t w = 0; w < batches.size(); ++w) {
          if (!(*got)[w].ok() || *(*got)[w] != want[w]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(server.stats().wire.connections_accepted, 64u);
  server.Shutdown();
  service.Stop();
}

TEST_F(ReactorTest, OneClientSharedByEightThreadsStaysBitwise) {
  engine::ScoringService service({Borrow(model_)});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", Borrow(model_)).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("shared");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  // Eight threads on ONE connection, interleaving correlated score frames
  // with plain stats and health frames: whichever thread reads the socket
  // hands every other thread its own answer.
  net::WireClient client(address);
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        if ((round + t) % 4 == 1) {
          if (!client.Stats().ok()) failures.fetch_add(1);
          continue;
        }
        if ((round + t) % 4 == 3) {
          const uint64_t nonce = static_cast<uint64_t>(t * 100 + round);
          auto health = client.Health(nonce);
          if (!health.ok() || health->nonce != nonce) failures.fetch_add(1);
          continue;
        }
        const size_t w = static_cast<size_t>(t * 20 + round) % batches.size();
        auto got =
            client.ScoreWorkloads("t", dataset_->records,
                                  std::vector<core::WorkloadBatch>{batches[w]});
        if (!got.ok() || got->size() != 1 || !(*got)[0].ok()) {
          failures.fetch_add(1);
        } else if (*(*got)[0] != want[w]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().wire.connections_accepted, 1u)
      << "every thread must share the client's one connection";
  server.Shutdown();
  service.Stop();
}

// ---------- Windowed scoring ----------

TEST_F(ReactorTest, PipelinedClientCompletesOutOfOrderResponses) {
  // A hand-rolled server that answers three score requests in REVERSE
  // order, encoding each request's id into its prediction — each Wait
  // must return its OWN response, not the arrival-order one.
  net::Listener listener;
  const std::string address = SocketAddress("ooo");
  ASSERT_TRUE(listener.Listen(address).ok());
  std::thread fake([&] {
    auto fd = listener.Accept();
    ASSERT_TRUE(fd.ok());
    std::vector<uint32_t> ids;
    for (int i = 0; i < 3; ++i) {
      auto frame = net::ReadFrame(*fd);
      ASSERT_TRUE(frame.ok());
      ASSERT_EQ(frame->type, net::FrameType::kScoreRequest);
      ids.push_back(frame->id);
    }
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      net::ScoreResponse response;
      response.ok = {1};
      response.predictions = {static_cast<double>(*it)};
      response.errors = {""};
      ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kScoreResponse, *it,
                                  net::EncodeScoreResponse(response))
                      .ok());
    }
    net::CloseConnection(*fd);
  });

  net::WireClient client(address);
  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(),
                                     dataset_->records.size());
  std::vector<net::WireClient::Pending> pending;
  for (int i = 0; i < 3; ++i) {
    auto submitted = client.SubmitScore("t", dataset_->records, batches);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    pending.push_back(std::move(*submitted));
  }
  // Request ids are assigned 1, 2, 3 in submit order; the fake server
  // answered 3, 2, 1 — each request must still see its own id.
  for (int i = 0; i < 3; ++i) {
    auto outcome = client.Wait(std::move(pending[i]));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->size(), 1u);
    EXPECT_EQ(*(*outcome)[0], static_cast<double>(i + 1));
  }
  fake.join();
  client.Close();
}

TEST_F(ReactorTest, PipelinedScoringAgainstReactorMatchesReference) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("pipe");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want = Reference(model_, batches);

  // A window of 8 over 30 single-batch requests: submits past the window
  // read answers first, the reactor answers in completion order, and the
  // request ids route them home.
  net::WireClientOptions copts;
  copts.max_inflight = 8;
  net::WireClient client(address, copts);
  std::vector<net::WireClient::Pending> pending;
  for (const core::WorkloadBatch& batch : batches) {
    auto submitted = client.SubmitScore(
        "t", dataset_->records, std::vector<core::WorkloadBatch>{batch});
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    pending.push_back(std::move(*submitted));
  }
  for (size_t w = 0; w < pending.size(); ++w) {
    auto outcome = client.Wait(std::move(pending[w]));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->size(), 1u);
    ASSERT_TRUE((*outcome)[0].ok());
    EXPECT_EQ(*(*outcome)[0], want[w]) << "w=" << w;
  }
  EXPECT_GE(server.stats().wire.frames_served, batches.size());
  client.Close();
  server.Shutdown();
  service.Stop();
}

TEST_F(ReactorTest, PipelinedErrorIndictsOneRequestNotTheStream) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServer server(&service, nullptr, "default");
  const std::string address = SocketAddress("pipeerr");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectTo(address);
  ASSERT_TRUE(fd.ok());
  // A score payload that does not decode: a kError carrying OUR id must
  // come back, and the connection must stay usable.
  ASSERT_TRUE(
      net::WriteFrame(*fd, net::FrameType::kScoreRequest, 42, "garbage")
          .ok());
  auto error = net::ReadFrame(*fd);
  ASSERT_TRUE(error.ok());
  ASSERT_EQ(error->type, net::FrameType::kError);
  EXPECT_EQ(error->id, 42u);
  // Still alive: a ping round-trips.
  ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kPing, 43, "alive").ok());
  auto pong = net::ReadFrame(*fd);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, net::FrameType::kPong);
  EXPECT_EQ(pong->id, 43u);
  net::CloseConnection(*fd);
  server.Shutdown();
  service.Stop();
}

// ---------- Rollouts under traffic ----------

TEST_F(ReactorTest, PublishAndRollbackUnderTrafficStayBitwise) {
  engine::ScoringService service({Borrow(model_)});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", Borrow(model_)).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("rollout");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto batches =
      engine::MakeConsecutiveBatches(dataset_->records.size(), 10);
  const std::vector<double> want1 = Reference(model_, batches);
  const std::vector<double> want2 = Reference(model2_, batches);

  // Traffic thread: every prediction must be bitwise one of the two
  // models' — a swap mid-request may mix them across workloads, but never
  // produce a third value.
  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::thread traffic([&] {
    net::WireClient client(address);
    while (!stop.load(std::memory_order_acquire)) {
      auto got = client.ScoreWorkloads("t", dataset_->records, batches);
      if (!got.ok() || got->size() != batches.size()) {
        anomalies.fetch_add(1);
        continue;
      }
      for (size_t w = 0; w < batches.size(); ++w) {
        if (!(*got)[w].ok() ||
            (*(*got)[w] != want1[w] && *(*got)[w] != want2[w])) {
          anomalies.fetch_add(1);
        }
      }
    }
  });

  net::WireClient admin(address);
  for (int round = 0; round < 3; ++round) {
    auto epoch = admin.Publish("default", *model2_);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    auto back = admin.Rollback("default");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
  }
  stop.store(true, std::memory_order_release);
  traffic.join();
  EXPECT_EQ(anomalies.load(), 0);
  server.Shutdown();
  service.Stop();
}

TEST_F(ReactorTest, CorruptChecksumPublishRejectedBeforeAnyEpoch) {
  engine::ScoringService service({Borrow(model_)});
  engine::ModelRegistry registry;
  ASSERT_TRUE(registry.Record("default", Borrow(model_)).ok());
  net::ReactorServer server(&service, &registry, "default");
  const std::string address = SocketAddress("cksum");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  BinaryWriter artifact;
  ASSERT_TRUE(model2_->Serialize(&artifact).ok());
  net::PublishRequest request;
  request.model_name = "default";
  request.model_bytes = artifact.buffer();
  std::string payload = net::EncodePublishRequest(request);
  const size_t byte_in_model =
      4 + request.model_name.size() + 4 + request.model_bytes.size() / 2;
  ASSERT_LT(byte_in_model, payload.size() - 8);
  payload[byte_in_model] ^= 0x01;

  auto fd = net::ConnectTo(address);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      net::WriteFrame(*fd, net::FrameType::kPublishRequest, 1, payload).ok());
  auto error = net::ReadFrame(*fd);
  ASSERT_TRUE(error.ok());
  ASSERT_EQ(error->type, net::FrameType::kError);
  const net::ErrorBody body = net::DecodeErrorBody(error->payload);
  EXPECT_NE(body.message.find("checksum"), std::string::npos)
      << body.message;
  net::CloseConnection(*fd);
  EXPECT_EQ(registry.NumEpochs("default"), 1u);
  server.Shutdown();
  service.Stop();
}

// ---------- Idle reaping ----------

TEST_F(ReactorTest, IdleConnectionsAreReaped) {
  engine::ScoringService service({Borrow(model_)});
  net::ReactorServerOptions options;
  options.idle_timeout_ms = 50;
  net::ReactorServer server(&service, nullptr, "default", options);
  const std::string address = SocketAddress("idle");
  ASSERT_TRUE(server.Listen(address).ok());
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectTo(address);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kPing, 1, "p").ok());
  ASSERT_TRUE(net::ReadFrame(*fd).ok());
  // Go quiet past the timeout; the server must hang up on us.
  auto eof = net::ReadFrame(*fd);
  EXPECT_TRUE(eof.status().IsNotFound()) << eof.status().ToString();
  net::CloseConnection(*fd);
  EXPECT_GE(server.stats().idle_closed, 1u);
  server.Shutdown();
  service.Stop();
}

}  // namespace
}  // namespace wmp
