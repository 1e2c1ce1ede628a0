#ifndef WMP_NET_WIRE_CLIENT_H_
#define WMP_NET_WIRE_CLIENT_H_

/// \file wire_client.h
/// Client side of the wire protocol: what a DBMS admission controller (or
/// wmpctl, the benches, net::FleetRouter) embeds to consult a remote
/// ScoringService.
///
///  * **One connection, any number of callers.** The client is
///    thread-safe. It connects on first use, after a stream failure, and
///    when the server has closed the idle connection.
///  * **Numbered requests.** Every request carries an id in its frame
///    header and its answer echoes it, so answers may come in any order;
///    up to `max_inflight` requests share the connection. `ScoreWorkloads`
///    is one blocking round trip, `SubmitScore` + `Wait` keep a window
///    open. One score frame carries a record batch plus every workload's
///    member indices, so requests count per call, not per workload.
///  * **No client threads.** A caller waiting for an answer reads the
///    socket itself, one reader at a time, and hands other callers'
///    frames to them; the others sleep until their frame arrives or the
///    reader leaves. Nothing sits between a caller and its socket.
///  * **Deadlines.** With `request_timeout_ms` set, each request has that
///    long to be answered (the waiting reader's poll timeout). An overdue
///    request fails alone, and its late answer is dropped when it comes.
///  * **Failures.** A kError answer fails its one request. EOF, an I/O
///    error, an undecodable frame, or a frame whose id matches no request
///    (id 0 included: the server's mark for a stream-level error) fails
///    every request in flight on the connection; the next request
///    reconnects.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/learned_wmp.h"
#include "core/workload.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "workloads/query_record.h"

namespace wmp::net {

struct WireClientOptions {
  /// Requests in flight on the connection at once. A send beyond it
  /// first reads responses until one is answered (flow control, not
  /// latency): deep enough to hide wire latency, shallow enough that one
  /// client cannot monopolize the server's flush windows.
  size_t max_inflight = 32;
  /// Bounds connect(2) itself (0 = OS default; see ConnectTo).
  int connect_timeout_ms = 0;
  /// Per-request deadline (0 = unbounded). Also arms SO_RCVTIMEO and
  /// SO_SNDTIMEO, so a peer that stalls inside a frame fails the stream
  /// instead of parking the reader forever.
  int request_timeout_ms = 0;
  /// Total tries per blocking call, >= 1. The default keeps the original
  /// "one transparent resend" behavior; a router talking to a flapping
  /// node sets 1 and owns the retry policy itself. Retries beyond the
  /// first pace themselves with bounded exponential backoff + full jitter
  /// (net/backoff.h). Regardless of attempts left, a non-idempotent
  /// request NEVER resends after a failed response read — see RoundTrip.
  int max_attempts = 2;
  uint32_t backoff_base_ms = 10;
  uint32_t backoff_cap_ms = 1000;
  /// Jitter RNG seed; mixed with the address hash so identical clients
  /// still de-synchronize. Fixed seed -> reproducible delay sequence.
  uint64_t jitter_seed = 0;
};

/// \brief One shared, thread-safe client connection to a
/// net::ReactorServer.
class WireClient {
 private:
  struct Call;
  struct Stream;

 public:
  /// A submitted score request, redeemed once by Wait. It must not
  /// outlive its client.
  class Pending {
   private:
    friend class WireClient;
    std::shared_ptr<Stream> stream_;
    std::shared_ptr<Call> call_;
    size_t workloads_ = 0;
  };

  explicit WireClient(std::string address, WireClientOptions options = {});
  /// Fails whatever is still in flight. No call may be running.
  ~WireClient();
  WireClient(WireClient&&) = delete;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Establishes the connection now (otherwise the first call does).
  /// Reconnects first if the server has hung up on the idle one.
  Status Connect();
  /// Drops the connection, failing every request in flight on it; the
  /// next call reconnects.
  void Close();
  bool connected() const;
  const std::string& address() const { return address_; }

  /// Round-trips a ping (connectivity / liveness probe).
  Status Ping();

  /// Scores every workload remotely in one request; returns one
  /// Result<double> per batch, in order. The call-level Result is the
  /// transport/protocol outcome; per-workload failures (e.g. an empty
  /// workload under a fixed-length model) come back inside the vector.
  Result<std::vector<Result<double>>> ScoreWorkloads(
      std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches);

  /// \name Windowed scoring: ScoreWorkloads split in two, without its
  /// retries, so one caller can keep several requests in flight.
  /// @{
  /// Encodes and sends one score request. `records` may be released as
  /// soon as this returns. Blocks only while `max_inflight` requests are
  /// unanswered.
  Result<Pending> SubmitScore(
      std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches);
  /// Blocks until the request is answered, failed, or overdue; same
  /// result shape as ScoreWorkloads. Requests may be waited in any order.
  Result<std::vector<Result<double>>> Wait(Pending pending);
  /// @}

  /// Serializes `model` and publishes it across every server shard under
  /// `name` (server default when empty). Returns the registry epoch now
  /// serving.
  Result<uint64_t> Publish(std::string_view name,
                           const core::LearnedWmpModel& model);

  /// Rolls `name` back to the previous registry epoch; returns it.
  Result<uint64_t> Rollback(std::string_view name);

  /// Service + server counters snapshot.
  Result<StatsResponse> Stats();

  /// \name Fleet control plane (what net::FleetRouter drives).
  /// @{
  /// Liveness/epoch probe; the response echoes `nonce`.
  Result<HealthResponse> Health(uint64_t nonce);
  /// Stages pre-serialized artifact bytes (phase one of a two-phase
  /// publish) without installing them. Idempotent: re-staging the same
  /// bytes just replaces the parked copy under a fresh ticket, so a lost
  /// stage response is safe to retry.
  Result<StageResponse> Stage(std::string_view name,
                              const std::string& model_bytes);
  /// Installs the staged artifact (phase two). NOT idempotent — same
  /// never-resend rule as Publish.
  Result<PublishResponse> Commit(uint64_t ticket);
  /// Discards a staged artifact (0 = whatever is parked). Idempotent.
  Result<AbortResponse> Abort(uint64_t ticket);
  /// @}

 private:
  /// Sends one request and waits for its response, reconnecting and
  /// resending when the failure provably preceded server-side execution
  /// (connect/write failures). `idempotent` additionally allows the
  /// resend after a failed response READ — safe for score/ping/stats,
  /// never for publish/rollback/commit (the server may have applied them
  /// before the response was lost). kError frames convert to their
  /// carried Status.
  Result<Frame> RoundTrip(FrameType request, std::string_view payload,
                          FrameType expected_response,
                          bool idempotent = true);
  /// Numbers, registers and writes one request on the live stream. A
  /// failure here means the request never reached the server whole.
  Result<Pending> Send(FrameType type, std::string_view payload);
  /// Reads (or waits for another reader) until `pending` is answered.
  Result<Frame> Await(const Pending& pending);
  /// The live stream, (re)connecting when there is none or the server
  /// hung up on the idle one. Requires mutex_.
  Result<std::shared_ptr<Stream>> LiveStream();
  /// Reads frames, one reader at a time, until `done()` holds or the
  /// stream dies. Requires mutex_ (held by `lock`).
  template <typename Done>
  void ReadUntil(std::unique_lock<std::mutex>& lock, Stream& stream,
                 Done done);
  /// Hands one read outcome to the request it answers. Requires mutex_.
  void Deliver(Stream& stream, Result<Frame> frame);
  /// Fails overdue requests; returns the earliest deadline still pending.
  /// Requires mutex_.
  std::chrono::steady_clock::time_point ExpireOverdue(Stream& stream);
  /// Marks the stream dead, fails everything in flight on it, and wakes
  /// its reader. Requires mutex_.
  void Kill(Stream& stream, const Status& why);

  std::string address_;
  WireClientOptions options_;
  /// Serializes frame writes.
  std::mutex write_mutex_;
  /// Guards the stream's bookkeeping, next_id_ and backoff_state_.
  mutable std::mutex mutex_;
  /// Signaled when a response lands or the reader leaves the socket.
  std::condition_variable cv_;
  std::shared_ptr<Stream> stream_;
  uint32_t next_id_ = 1;  ///< request ids; 0 is never issued
  uint64_t backoff_state_ = 0;  ///< jitter RNG; seeded in the constructor
};

}  // namespace wmp::net

#endif  // WMP_NET_WIRE_CLIENT_H_
