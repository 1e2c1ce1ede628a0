// Tests for the wire frame codec (net/frame.h) and the protocol payload
// encodings (net/protocol.h): byte-level round trips, partial
// reads/short writes across a real descriptor, and rejection of oversize,
// truncated, and malformed frames with clean errors.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "util/io.h"
#include "workloads/dataset.h"
#include "workloads/wire_format.h"

namespace wmp::net {
namespace {

// A pipe whose ends close on destruction; ReadFrame/WriteFrame speak
// plain descriptors, so the codec is testable without sockets.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
  void CloseWriter() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const std::string payload = "hello workload memory prediction";
  const std::string wire =
      EncodeFrame(FrameType::kScoreRequest, 0xC0FFEE01u, payload);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + payload.size());
  size_t consumed = 0;
  auto frame = DecodeFrame(wire, FrameLimits{}, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame->type, FrameType::kScoreRequest);
  EXPECT_EQ(frame->id, 0xC0FFEE01u);
  EXPECT_EQ(frame->payload, payload);
}

TEST(FrameTest, DecodeEmptyPayloadAndBackToBackFrames) {
  const std::string wire = EncodeFrame(FrameType::kPing, 1, "") +
                           EncodeFrame(FrameType::kPong, 2, "x");
  size_t consumed = 0;
  auto first = DecodeFrame(wire, FrameLimits{}, &consumed);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, FrameType::kPing);
  EXPECT_EQ(first->id, 1u);
  EXPECT_TRUE(first->payload.empty());
  auto second = DecodeFrame(wire.substr(consumed), FrameLimits{}, &consumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, FrameType::kPong);
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(second->payload, "x");
}

TEST(FrameTest, DecodeRejectsBadMagic) {
  std::string wire = EncodeFrame(FrameType::kPing, 1, "abc");
  wire[0] ^= 0x5A;  // corrupt the magic
  size_t consumed = 0;
  auto frame = DecodeFrame(wire, FrameLimits{}, &consumed);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsInvalidArgument());
  // A WMF1 ping (magic, type, length: a 9-byte header) is refused at
  // once, though it is shorter than this protocol's header.
  const uint32_t wmf1_magic = 0x31464D57;
  const uint32_t wmf1_len = 3;
  std::string wmf1(reinterpret_cast<const char*>(&wmf1_magic), 4);
  wmf1.push_back(static_cast<char>(FrameType::kPing));
  wmf1.append(reinterpret_cast<const char*>(&wmf1_len), 4);
  wmf1 += "wmp";
  ASSERT_LT(wmf1.size(), kFrameHeaderBytes);
  frame = DecodeFrame(wmf1, FrameLimits{}, &consumed);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsInvalidArgument());
  EXPECT_NE(frame.status().message().find("bad frame magic"),
            std::string::npos)
      << frame.status().ToString();
}

TEST(FrameTest, DecodeRejectsOversizeAnnouncedLength) {
  FrameLimits limits;
  limits.max_payload_bytes = 16;
  const std::string wire =
      EncodeFrame(FrameType::kScoreRequest, 1, std::string(17, 'x'));
  size_t consumed = 0;
  auto frame = DecodeFrame(wire, limits, &consumed);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsInvalidArgument());
  // The announced length is rejected from the header alone — a prefix
  // holding just the header fails identically instead of waiting for
  // bytes that may never come.
  auto prefix =
      DecodeFrame(wire.substr(0, kFrameHeaderBytes), limits, &consumed);
  ASSERT_FALSE(prefix.ok());
  EXPECT_TRUE(prefix.status().IsInvalidArgument());
}

TEST(FrameTest, DecodeReportsIncompleteFramesAsOutOfRange) {
  const std::string wire = EncodeFrame(FrameType::kPing, 1, "abcdef");
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    size_t consumed = 0;
    auto frame = DecodeFrame(wire.substr(0, cut), FrameLimits{}, &consumed);
    ASSERT_FALSE(frame.ok()) << "cut=" << cut;
    EXPECT_TRUE(frame.status().IsOutOfRange()) << "cut=" << cut;
  }
}

TEST(FrameTest, ReadFrameAssemblesByteDribbledInput) {
  // The peer writes one byte at a time: ReadFrame must loop over partial
  // reads of both header and payload.
  Pipe pipe;
  const std::string payload(257, 'q');
  const std::string wire =
      EncodeFrame(FrameType::kStatsRequest, 0x01020304u, payload);
  std::thread writer([&] {
    for (char c : wire) {
      ASSERT_EQ(::write(pipe.writer(), &c, 1), 1);
    }
  });
  auto frame = ReadFrame(pipe.reader());
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kStatsRequest);
  EXPECT_EQ(frame->id, 0x01020304u);
  EXPECT_EQ(frame->payload, payload);
}

TEST(FrameTest, WriteFrameSurvivesShortWritesOnAFullPipe) {
  // A payload much larger than the pipe buffer forces write() to return
  // short; the slow byte-trickle reader keeps the pipe near-full the
  // whole time.
  Pipe pipe;
  const std::string payload(2 << 20, 'z');
  std::string received;
  uint32_t received_id = 0;
  std::thread reader([&] {
    auto frame = ReadFrame(pipe.reader());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    received_id = frame->id;
    received = std::move(frame->payload);
  });
  ASSERT_TRUE(
      WriteFrame(pipe.writer(), FrameType::kPublishRequest, 77, payload).ok());
  reader.join();
  EXPECT_EQ(received_id, 77u);
  EXPECT_EQ(received, payload);
}

// The gather write over a socketpair: a 4 MB frame, then an empty-payload
// frame, must arrive as exactly EncodeFrame's bytes. A reader drains the
// stream concurrently, and SIGUSR1 (a no-op handler installed without
// SA_RESTART) keeps interrupting the blocked writer, so sends return short
// at arbitrary offsets and the write has to resume mid-frame.
TEST(FrameTest, GatherWriteRoundTripsByteExactlyOverASocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string payload(4 << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) ^ (i >> 9));
  }
  const std::string want =
      EncodeFrame(FrameType::kPublishRequest, 5, payload) +
      EncodeFrame(FrameType::kPing, 6, "");
  struct sigaction quiet {}, previous {};
  quiet.sa_handler = [](int) {};
  sigemptyset(&quiet.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &previous), 0);

  std::string got;
  std::thread reader([&] {
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(sv[1], buf, sizeof(buf));
      if (r <= 0) break;
      got.append(buf, static_cast<size_t>(r));
    }
  });
  std::atomic<bool> writing{true};
  const pthread_t writer = ::pthread_self();
  std::thread pester([&] {
    while (writing.load()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  const Status big =
      WriteFrame(sv[0], FrameType::kPublishRequest, 5, payload);
  const Status empty = WriteFrame(sv[0], FrameType::kPing, 6, "");
  writing.store(false);
  pester.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::shutdown(sv[0], SHUT_WR);
  reader.join();
  ::close(sv[0]);
  ::close(sv[1]);

  ASSERT_TRUE(big.ok()) << big.ToString();
  ASSERT_TRUE(empty.ok()) << empty.ToString();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
  size_t consumed = 0;
  auto first = DecodeFrame(got, FrameLimits{}, &consumed);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, FrameType::kPublishRequest);
  EXPECT_EQ(first->id, 5u);
  EXPECT_TRUE(first->payload == payload);
  auto second = DecodeFrame(std::string_view(got).substr(consumed),
                            FrameLimits{}, &consumed);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->type, FrameType::kPing);
  EXPECT_EQ(second->id, 6u);
  EXPECT_TRUE(second->payload.empty());
}

TEST(FrameTest, ReadFrameCleanEofIsNotFound) {
  Pipe pipe;
  pipe.CloseWriter();
  auto frame = ReadFrame(pipe.reader());
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsNotFound());
}

TEST(FrameTest, ReadFrameEofInsideHeaderOrPayloadIsIOError) {
  const std::string wire = EncodeFrame(FrameType::kPing, 1, "abcdef");
  for (size_t cut : {size_t{3}, kFrameHeaderBytes + 2}) {
    Pipe pipe;
    ASSERT_EQ(::write(pipe.writer(), wire.data(), cut),
              static_cast<ssize_t>(cut));
    pipe.CloseWriter();
    auto frame = ReadFrame(pipe.reader());
    ASSERT_FALSE(frame.ok()) << "cut=" << cut;
    EXPECT_TRUE(frame.status().IsIOError()) << "cut=" << cut;
  }
}

TEST(FrameTest, ReadFrameRejectsOversizeBeforeReadingPayload) {
  Pipe pipe;
  FrameLimits limits;
  limits.max_payload_bytes = 8;
  // Write only the header announcing a huge payload: the reader must
  // reject it without waiting for the (never-sent) payload bytes.
  std::string header =
      EncodeFrame(FrameType::kPing, 1, "").substr(0, kFrameHeaderBytes - 4);
  const uint32_t huge = 1u << 30;
  header.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  ASSERT_EQ(::write(pipe.writer(), header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  auto frame = ReadFrame(pipe.reader(), limits);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsInvalidArgument());
}

// ---------- protocol payloads ----------

TEST(ProtocolTest, ScoreRequestRoundTripCarriesFingerprintsBitwise) {
  workloads::DatasetOptions opt;
  opt.num_queries = 24;
  opt.seed = 5;
  auto dataset = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());

  const std::vector<std::vector<uint32_t>> indices = {{0, 1, 2}, {3, 0, 5}};
  std::vector<core::WorkloadBatch> batches(indices.size());
  for (size_t b = 0; b < indices.size(); ++b) {
    batches[b].query_indices = indices[b];
  }
  auto decoded = DecodeScoreRequest(
      EncodeScoreRequest("tenant-42", dataset->records, batches));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tenant, "tenant-42");
  ASSERT_EQ(decoded->records.size(), dataset->records.size());
  for (size_t i = 0; i < decoded->records.size(); ++i) {
    const auto& a = dataset->records[i];
    const auto& b = decoded->records[i];
    EXPECT_EQ(a.sql_text, b.sql_text);
    EXPECT_EQ(a.plan_features, b.plan_features);
    EXPECT_EQ(a.family_id, b.family_id);
    // The serving-layer cache key survives the hop bitwise.
    EXPECT_EQ(workloads::ContentFingerprint(a), b.content_fingerprint);
    EXPECT_EQ(a.content_fingerprint, b.content_fingerprint);
  }
  ASSERT_EQ(decoded->batches.size(), 2u);
  EXPECT_EQ(decoded->batches[0].query_indices, indices[0]);
  EXPECT_EQ(decoded->batches[1].query_indices, indices[1]);
}

TEST(ProtocolTest, ScoreRequestRejectsOutOfRangeWorkloadIndices) {
  workloads::DatasetOptions opt;
  opt.num_queries = 8;
  opt.seed = 5;
  auto dataset = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());
  std::vector<core::WorkloadBatch> batches(1);
  batches[0].query_indices = {
      static_cast<uint32_t>(dataset->records.size())};  // one past the end
  auto decoded = DecodeScoreRequest(
      EncodeScoreRequest("t", dataset->records, batches));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsOutOfRange());
}

TEST(ProtocolTest, RecordWithWrongFingerprintIsRejected) {
  workloads::DatasetOptions opt;
  opt.num_queries = 8;
  opt.seed = 5;
  auto dataset = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());
  // Claim a fingerprint that is not record 0's content hash: the shared
  // server-side caches key on it, so the decoder must refuse.
  dataset->records[0].content_fingerprint =
      workloads::ContentFingerprint(dataset->records[0]) ^ 1;
  std::vector<core::WorkloadBatch> batches(1);
  batches[0].query_indices = {0};
  auto decoded = DecodeScoreRequest(
      EncodeScoreRequest("t", dataset->records, batches));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(ProtocolTest, TruncatedScoreRequestFailsCleanly) {
  workloads::DatasetOptions opt;
  opt.num_queries = 8;
  opt.seed = 5;
  auto dataset = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok());
  std::vector<core::WorkloadBatch> batches(1);
  batches[0].query_indices = {0, 1, 2};
  const std::string full =
      EncodeScoreRequest("t", dataset->records, batches);
  // Every strict prefix must decode to an error, never crash or hang.
  for (size_t cut = 0; cut < full.size(); cut += 7) {
    auto decoded = DecodeScoreRequest(full.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(ProtocolTest, ScoreResponseMixedOutcomesRoundTrip) {
  ScoreResponse response;
  response.ok = {1, 0, 1};
  response.predictions = {12.5, 0.0, -3.25};
  response.errors = {"", "empty workload", ""};
  auto decoded = DecodeScoreResponse(EncodeScoreResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ok, response.ok);
  EXPECT_EQ(decoded->predictions[0], 12.5);
  EXPECT_EQ(decoded->predictions[2], -3.25);
  EXPECT_EQ(decoded->errors[1], "empty workload");
}

TEST(ProtocolTest, PublishAndRollbackRoundTrip) {
  PublishRequest publish;
  publish.model_name = "tenant-a";
  publish.model_bytes = std::string("\x01\x02\x03\x00\x7f", 5);
  auto publish2 = DecodePublishRequest(EncodePublishRequest(publish));
  ASSERT_TRUE(publish2.ok());
  EXPECT_EQ(publish2->model_name, publish.model_name);
  EXPECT_EQ(publish2->model_bytes, publish.model_bytes);

  // Empty name is valid (server substitutes its default); a missing
  // artifact is not.
  EXPECT_TRUE(DecodePublishRequest(EncodePublishRequest({"", "bytes"}))
                  .ok());
  EXPECT_FALSE(DecodePublishRequest(EncodePublishRequest({"name", ""}))
                   .ok());

  RollbackResponse rollback;
  rollback.registry_epoch = 7;
  rollback.shards_swapped = 3;
  auto rollback2 = DecodeRollbackResponse(EncodeRollbackResponse(rollback));
  ASSERT_TRUE(rollback2.ok());
  EXPECT_EQ(rollback2->registry_epoch, 7u);
  EXPECT_EQ(rollback2->shards_swapped, 3u);
}

// ServiceStats counters in stats-frame slot order. The order is the wire
// contract: a peer of any version reads slot i as the same counter.
using ServiceCounter = uint64_t engine::ServiceStats::*;
constexpr ServiceCounter kServiceSlots[] = {
    &engine::ServiceStats::submitted,
    &engine::ServiceStats::completed,
    &engine::ServiceStats::failed,
    &engine::ServiceStats::flushes,
    &engine::ServiceStats::flushes_full,
    &engine::ServiceStats::flushes_adaptive,
    &engine::ServiceStats::flushes_deadline,
    &engine::ServiceStats::flushes_drain,
    &engine::ServiceStats::cache_hits,
    &engine::ServiceStats::cache_misses,
    &engine::ServiceStats::template_cache_hits,
    &engine::ServiceStats::template_cache_misses,
    &engine::ServiceStats::models_published,
    &engine::ServiceStats::template_entries_warmed,
    &engine::ServiceStats::max_queue_depth,
    &engine::ServiceStats::queue_depth,
    &engine::ServiceStats::total_latency_us,
    &engine::ServiceStats::max_latency_us,
    &engine::ServiceStats::assign_rows,
    &engine::ServiceStats::assign_bound_skips,
    &engine::ServiceStats::assign_early_exits,
    &engine::ServiceStats::assign_full_distances,
};
// Every ServiceStats data member is a u64 counter: a field added to the
// struct without a slot here stops this from compiling.
static_assert(sizeof(engine::ServiceStats) ==
              std::size(kServiceSlots) * sizeof(uint64_t));

using ServerCounter = uint64_t WireServerCounters::*;
constexpr ServerCounter kServerSlots[] = {
    &WireServerCounters::connections_accepted,
    &WireServerCounters::frames_served,
    &WireServerCounters::protocol_errors,
    &WireServerCounters::accept_failures,
};
static_assert(sizeof(WireServerCounters) ==
              std::size(kServerSlots) * sizeof(uint64_t));

// A stats payload built by hand: the service counters as a counted list of
// u64 slots, then the server counters.
std::string StatsPayload(const std::vector<uint64_t>& service,
                         const std::vector<uint64_t>& server) {
  BinaryWriter w;
  w.WriteU64(service.size());
  for (uint64_t v : service) w.WriteU64(v);
  for (uint64_t v : server) w.WriteU64(v);
  return w.buffer();
}

TEST(ProtocolTest, StatsResponseRoundTripAndErrorBody) {
  // A distinct value in every slot, so a counter written or read one slot
  // off cannot pass.
  StatsResponse stats;
  std::vector<uint64_t> service, server;
  for (size_t i = 0; i < std::size(kServiceSlots); ++i) {
    service.push_back(1000 + i);
    stats.service.*kServiceSlots[i] = service.back();
  }
  for (size_t i = 0; i < std::size(kServerSlots); ++i) {
    server.push_back(2000 + i);
    stats.server.*kServerSlots[i] = server.back();
  }
  const std::string payload = EncodeStatsResponse(stats);
  EXPECT_EQ(payload, StatsPayload(service, server));
  auto decoded = DecodeStatsResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (size_t i = 0; i < std::size(kServiceSlots); ++i) {
    EXPECT_EQ(decoded->service.*kServiceSlots[i], service[i])
        << "service slot " << i;
  }
  for (size_t i = 0; i < std::size(kServerSlots); ++i) {
    EXPECT_EQ(decoded->server.*kServerSlots[i], server[i])
        << "server slot " << i;
  }

  ErrorBody error;
  error.code = static_cast<uint8_t>(StatusCode::kFailedPrecondition);
  error.message = "no model";
  const Status st = StatusFromError(DecodeErrorBody(EncodeErrorBody(error)));
  EXPECT_TRUE(st.IsFailedPrecondition());
  EXPECT_NE(st.message().find("no model"), std::string::npos);
  // Garbage degrades to Internal, never throws.
  EXPECT_TRUE(StatusFromError(DecodeErrorBody("zz")).IsInternal());
}

TEST(ProtocolTest, StatsResponseFromOlderPeerReadsMissingSlotsAsZero) {
  for (size_t announced : {size_t{0}, size_t{5}}) {
    std::vector<uint64_t> service;
    for (size_t i = 0; i < announced; ++i) service.push_back(10 + i);
    auto decoded =
        DecodeStatsResponse(StatsPayload(service, {21, 22, 23, 24}));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    for (size_t i = 0; i < std::size(kServiceSlots); ++i) {
      EXPECT_EQ(decoded->service.*kServiceSlots[i],
                i < announced ? service[i] : 0u)
          << "announced " << announced << ", service slot " << i;
    }
    for (size_t i = 0; i < std::size(kServerSlots); ++i) {
      EXPECT_EQ(decoded->server.*kServerSlots[i], 21 + i)
          << "announced " << announced << ", server slot " << i;
    }
  }
}

TEST(ProtocolTest, StatsResponseFromNewerPeerIgnoresExtraSlots) {
  // Three trailing counters this build does not know: skipped, not read
  // as server counters.
  std::vector<uint64_t> service;
  for (size_t i = 0; i < std::size(kServiceSlots) + 3; ++i) {
    service.push_back(100 + i);
  }
  auto decoded = DecodeStatsResponse(StatsPayload(service, {31, 32, 33, 34}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (size_t i = 0; i < std::size(kServiceSlots); ++i) {
    EXPECT_EQ(decoded->service.*kServiceSlots[i], service[i])
        << "service slot " << i;
  }
  for (size_t i = 0; i < std::size(kServerSlots); ++i) {
    EXPECT_EQ(decoded->server.*kServerSlots[i], 31 + i)
        << "server slot " << i;
  }
  // A count the payload cannot hold is rejected before any allocation.
  BinaryWriter lying;
  lying.WriteU64(1000);
  EXPECT_FALSE(DecodeStatsResponse(lying.buffer()).ok());
}

}  // namespace
}  // namespace wmp::net
