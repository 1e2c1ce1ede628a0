#ifndef WMP_NET_ASYNC_CLIENT_H_
#define WMP_NET_ASYNC_CLIENT_H_

/// \file async_client.h
/// Pipelined client for the event-loop server: keeps many score requests
/// in flight on ONE connection.
///
/// The blocking WireClient is strictly request→response: wire latency is
/// paid once per call, so a controller scoring workload-by-workload is
/// bounded by round trips, not by the service. This client sends
/// kScoreRequestPipelined frames tagged with a correlation id and lets the
/// server answer in COMPLETION order; a background reader thread matches
/// responses to their ids and fulfills the caller's futures. With a window
/// of N in-flight requests, N round trips overlap and the wire cost
/// amortizes to ~1/N per request — that is the whole perf story of the
/// reactor pairing (bench/wire_latency.cc measures it).
///
///   caller ──SubmitScore──▶ [corr id, frame, promise registered]
///                               │ (blocks only when the in-flight window
///                               │  is full — flow control, not latency)
///        socket ◀──────────────┘
///        socket ──▶ reader thread ──▶ promise.set_value, any order
///
/// Failure semantics: a kErrorPipelined frame fails exactly the one
/// request its correlation id names; a plain kError frame, an undecodable
/// response, or EOF is a STREAM failure — every outstanding future fails
/// and the connection is dead (no transparent reconnect: in-flight
/// requests may or may not have executed, and score calls are
/// re-issuable by the caller, who knows which ones it still needs).
///
/// Deadlines: with `request_timeout_ms` set, a request unanswered past its
/// deadline fails ITS OWN future with kDeadlineExceeded — the stream stays
/// up and other in-flight futures are untouched. The expired correlation
/// id is remembered so the response, if it eventually arrives, is dropped
/// quietly instead of being mistaken for a desynchronized stream (the
/// "unmatched correlation id" stream-death rule applies only to ids this
/// client never issued). Without the option a stalled server parks every
/// future forever — the failure mode this exists to kill.
///
/// Thread-safety: SubmitScore may be called from multiple threads; the
/// futures are independent. Close (or destruction) fails whatever is
/// still outstanding.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/workload.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "util/status.h"
#include "workloads/query_record.h"

namespace wmp::net {

struct AsyncWireClientOptions {
  /// Receiver-side frame bound (see FrameLimits).
  size_t max_payload_bytes = 64ull << 20;
  /// SubmitScore blocks while this many requests are unanswered. Deep
  /// enough to hide wire latency, shallow enough that one client cannot
  /// monopolize the server's flush windows.
  size_t max_inflight = 32;
  /// Bounds connect(2) at Connect time (0 = OS default; see ConnectTo).
  int connect_timeout_ms = 0;
  /// Per-request deadline: an unanswered request fails its own future
  /// with kDeadlineExceeded after this long, stream intact (0 = never).
  int request_timeout_ms = 0;
};

/// \brief Pipelined scoring connection to a net::ReactorServer.
class AsyncWireClient {
 public:
  /// Connects eagerly (a pipelined client with nothing to pipeline is
  /// useless, so there is no lazy mode).
  static Result<std::unique_ptr<AsyncWireClient>> Connect(
      const std::string& address, AsyncWireClientOptions options = {});
  ~AsyncWireClient();
  AsyncWireClient(const AsyncWireClient&) = delete;
  AsyncWireClient& operator=(const AsyncWireClient&) = delete;

  /// Sends one pipelined score request and returns a future for its
  /// response. Blocks only for window flow control (and the write itself);
  /// the future resolves whenever the server finishes — possibly before
  /// earlier submissions. Fails fast if the stream is already dead.
  Result<std::future<Result<ScoreResponse>>> SubmitScore(
      std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches);

  /// Number of submitted-but-unanswered requests right now.
  size_t inflight() const;

  /// True until a stream-level failure (or Close) kills the connection.
  bool alive() const;

  /// Fails every outstanding future with a "client closed" status, shuts
  /// the socket down, joins the reader and timer threads, then closes the
  /// socket. Idempotent; also run by the destructor.
  void Close();

 private:
  AsyncWireClient(int fd, AsyncWireClientOptions options);
  void ReaderLoop();
  /// Expires overdue requests one by one (runs only with a deadline set).
  void TimerLoop();
  /// Fails every pending future with `status` and marks the stream dead.
  void FailAll(const Status& status);

  /// One in-flight request: its caller's promise plus its deadline
  /// (time_point::max() when deadlines are off).
  struct Pending {
    std::promise<Result<ScoreResponse>> promise;
    std::chrono::steady_clock::time_point deadline;
  };

  AsyncWireClientOptions options_;
  int fd_ = -1;
  std::thread reader_;
  std::thread timer_;

  mutable std::mutex mutex_;           // pendings_, next_correlation_, dead_
  std::condition_variable window_cv_;  // signaled as responses drain
  std::condition_variable timer_cv_;   // signaled on new deadline / death
  std::unordered_map<uint32_t, Pending> pendings_;
  /// Correlation ids whose futures already expired; the late response (if
  /// it ever comes) is discarded instead of indicting the stream.
  std::unordered_set<uint32_t> expired_;
  uint32_t next_correlation_ = 1;
  bool dead_ = false;
  Status death_status_;

  std::mutex write_mutex_;  // frame writes are atomic; guards fd_'s close
};

}  // namespace wmp::net

#endif  // WMP_NET_ASYNC_CLIENT_H_
