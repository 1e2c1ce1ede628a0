#ifndef WMP_NET_WIRE_CLIENT_H_
#define WMP_NET_WIRE_CLIENT_H_

/// \file wire_client.h
/// Client side of the wire protocol: what a DBMS admission controller (or
/// wmpctl / the benches) embeds to consult a remote ScoringService.
///
///  * **Connection reuse.** One client holds one blocking connection and
///    pipelines request/response pairs over it; Connect is automatic on
///    first use, after an I/O failure (one transparent reconnect per call
///    — a restarted server looks like a slow call, not an error), and
///    when the server has closed the idle pooled connection.
///  * **Batched score requests.** `ScoreWorkloads` mirrors
///    engine::BatchScorer::ScoreWorkloads: one frame carries the whole
///    record batch plus every workload's member indices, the server
///    micro-batches them through its shards, and one frame returns every
///    outcome — the request count is per *call*, not per workload.
///  * **Rollouts.** `Publish` ships a locally-trained artifact
///    (LearnedWmpModel::Serialize bytes) and returns the registry epoch
///    the server now serves; `Rollback` restores the previous epoch.
///
/// Thread-safety: a WireClient is a single connection and is NOT
/// thread-safe; give each client thread its own instance (they multiplex
/// fine on the server side).

#include <cstdint>
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
  /// Receiver-side frame bound (see FrameLimits).
  size_t max_payload_bytes = 64ull << 20;
  /// \name Deadlines (0 = unbounded, the pre-hardening behavior).
  ///
  /// connect_timeout_ms bounds connect(2) itself (see ConnectTo);
  /// read/write_timeout_ms arm SO_RCVTIMEO/SO_SNDTIMEO, so a stalled
  /// server surfaces as kDeadlineExceeded instead of parking the caller
  /// forever. A deadline error closes the connection (the stream position
  /// is unknowable once a frame may be half-transferred).
  /// @{
  int connect_timeout_ms = 0;
  int read_timeout_ms = 0;
  int write_timeout_ms = 0;
  /// @}
  /// Total tries per call, >= 1. The default keeps the original "one
  /// transparent resend" behavior; a router talking to a flapping node
  /// raises it. Retries beyond the first pace themselves with bounded
  /// exponential backoff + full jitter (net/backoff.h). Regardless of
  /// attempts left, a non-idempotent request NEVER resends after a failed
  /// response read — see RoundTrip.
  int max_attempts = 2;
  uint32_t backoff_base_ms = 10;
  uint32_t backoff_cap_ms = 1000;
  /// Jitter RNG seed; mixed with the address hash so identical clients
  /// still de-synchronize. Fixed seed -> reproducible delay sequence.
  uint64_t jitter_seed = 0;
};

/// \brief One reusable client connection to a net::ReactorServer.
class WireClient {
 public:
  explicit WireClient(std::string address, WireClientOptions options = {});
  ~WireClient();
  WireClient(WireClient&&) = delete;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Establishes the connection now (otherwise the first call does).
  /// Reconnects first if the server has hung up on the pooled one.
  Status Connect();
  /// Drops the connection; the next call reconnects.
  void Close();
  bool connected() const { return fd_ >= 0; }
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
  /// Sends one request frame and reads its response, reconnecting and
  /// resending once when the failure provably preceded server-side
  /// execution (connect/write failures). `idempotent` additionally allows
  /// the resend after a failed response READ — safe for score/ping/stats,
  /// never for publish/rollback (the server may have applied them before
  /// the response was lost). kError frames convert to their carried
  /// Status.
  Result<Frame> RoundTrip(FrameType request, std::string payload,
                          FrameType expected_response,
                          bool idempotent = true);

  std::string address_;
  WireClientOptions options_;
  int fd_ = -1;
  uint64_t backoff_state_ = 0;  ///< jitter RNG; seeded in the constructor
};

}  // namespace wmp::net

#endif  // WMP_NET_WIRE_CLIENT_H_
