#ifndef WMP_NET_REACTOR_SERVER_H_
#define WMP_NET_REACTOR_SERVER_H_

/// \file reactor_server.h
/// Single-threaded event-loop front end for engine::ScoringService — the
/// wire server that `wmpctl serve` runs and every remote client talks to.
///
/// Architecture
///
///     clients ──frames──▶ epoll/poll reactor (ONE thread)
///                           │  nonblocking accept + per-connection
///                           │  read/write buffers, incremental frame
///                           │  reassembly, write backpressure,
///                           │  idle timeouts
///                           ▼
///              net::RequestDispatcher (decode/validate/encode)
///                           │
///                           ▼
///              engine::ScoringService ──flush──▶ completion doorbell
///                           ▲                    (eventfd/self-pipe)
///                           └── score futures parked, never get() on
///                               the loop thread
///
///  * **Why a reactor.** A thread per socket spends its context switches
///    on scheduling; on a 1-core deployment tens of controllers would burn
///    the core. The reactor multiplexes every socket from one thread, and
///    — because score work is handed to the service asynchronously — the
///    service's cross-client micro-batching sees MANY sockets' requests in
///    one flush window instead of one request per blocked thread.
///  * **Score requests never block the loop.** A decoded score request is
///    submitted (RequestDispatcher::SubmitScore), its futures parked, and
///    the loop goes back to the poller. The service's completion callback
///    (ScoringService::SetCompletionCallback) writes the reactor's wakeup
///    fd after each flush; the loop then drains finished futures with
///    zero-timeout polls and writes the responses. Publish/rollback/stats
///    frames execute inline — they are control-plane rare and must
///    serialize against rollouts anyway.
///  * **Ordering.** Every answer echoes its request's frame id, kError
///    included, so answers may leave in any order: score frames answer in
///    completion order, every other frame inline as it is parsed, without
///    any queue. That is what lets one net::WireClient keep many requests
///    in flight per connection. An error that belongs to no request (a
///    stream that no longer frames) carries id 0.
///  * **Backpressure.** Responses are buffered per connection and written
///    as the socket accepts them (write interest toggles on partial
///    writes). When a slow reader's buffer passes the high watermark the
///    reactor stops READING that connection until the buffer drains below
///    half — bounded memory per connection, no stalling anyone else.
///  * **Hostile input.** Size caps before allocation, bounds-checked
///    decode, kError per request where the stream is still framed; a
///    desynchronized stream gets a best-effort kError and the connection
///    is flushed and closed. Other connections never notice. Connections
///    idle past `idle_timeout_ms` are closed.
///
/// Thread-safety: Listen + Start once from one thread;
/// Shutdown/stats/address from any thread. The server registers itself as
/// the service's completion callback for the duration of the loop — run at
/// most one reactor per ScoringService.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/dispatch.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace wmp::net {

struct ReactorServerOptions {
  /// Pause reading a connection whose outbound buffer exceeds this many
  /// bytes; resume below half of it.
  size_t write_high_watermark = 4ull << 20;
  /// Close connections with no I/O progress for this long; <= 0 disables.
  int64_t idle_timeout_ms = 5 * 60 * 1000;
};

/// Reactor counters: the set the stats frame carries (WireServerCounters)
/// plus loop-specific ones.
struct ReactorCounters {
  WireServerCounters wire;
  uint64_t backpressure_pauses = 0;  ///< reads paused on the high watermark
  uint64_t idle_closed = 0;          ///< connections reaped by the timeout
};

/// \brief Event-loop socket server exposing a ScoringService + ModelRegistry.
class ReactorServer {
 public:
  /// Borrows `service` and `registry`; both must outlive the server, and
  /// the service must not be Stop()ped before Shutdown() returns (parked
  /// score futures are fulfilled by its dispatchers).
  ReactorServer(engine::ScoringService* service,
                engine::ModelRegistry* registry, std::string model_name,
                ReactorServerOptions options = {});
  ~ReactorServer();
  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Binds and listens on `address` ("unix:PATH" or "host:port";
  /// "127.0.0.1:0" picks an ephemeral port — see address()).
  Status Listen(const std::string& address);

  /// Runs the event loop on an internal thread. Pair with Shutdown().
  Status Start();

  /// Stops the loop (via the wakeup fd), closes every connection, waits
  /// out parked score futures, joins the Start thread. Idempotent; also
  /// run by the destructor.
  void Shutdown();

  const std::string& address() const { return listener_.address(); }
  int port() const { return listener_.port(); }

  ReactorCounters stats() const;

 private:
  /// Readiness multiplexer: epoll on Linux, poll(2) elsewhere — the
  /// interest map is identical either way, only Wait differs.
  class Poller;
  struct PollEvent {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  struct Conn {
    int fd = -1;
    /// Inbound bytes not yet parsed; `rpos` is the consumed prefix
    /// (compacted periodically so a long-lived connection doesn't grow it
    /// forever).
    std::string rbuf;
    size_t rpos = 0;
    /// Outbound bytes not yet accepted by the kernel.
    std::string wbuf;
    size_t wpos = 0;
    bool read_paused = false;  ///< backpressure: over the high watermark
    bool closing = false;      ///< flush wbuf, then close
    bool registered_read = false;
    bool registered_write = false;
    uint64_t pending_scores = 0;  ///< parked score requests on this conn
    std::chrono::steady_clock::time_point last_activity;
  };

  /// One parked score request: owns the decoded request (Submit borrows
  /// its records until every future resolves) and collects outcomes as
  /// the service fulfills them.
  struct PendingScore {
    std::shared_ptr<Conn> conn;
    std::unique_ptr<ScoreRequest> request;
    std::vector<std::future<Result<double>>> futures;
    std::vector<Result<double>> outcomes;
    uint32_t id = 0;  ///< the request frame's id, echoed on the answer
  };

  void RunLoop();
  void AcceptNew();
  void OnReadable(const std::shared_ptr<Conn>& conn);
  void OnWritable(const std::shared_ptr<Conn>& conn);
  void ParseFrames(const std::shared_ptr<Conn>& conn);
  /// Answers `frame` inline, or parks a decoded score request until the
  /// service answers it.
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  /// Encodes `frame` (its id included) into the connection's write buffer
  /// and writes what the socket will take now; error frames count as
  /// protocol errors.
  void AppendFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Writes buffered bytes until the kernel pushes back; manages write
  /// interest, backpressure resume, and deferred close.
  void TryWrite(const std::shared_ptr<Conn>& conn);
  void UpdateInterest(const std::shared_ptr<Conn>& conn);
  /// Collects outcomes from parked requests whose futures resolved and
  /// writes their responses.
  void DrainCompletions();
  void CloseIdleConns();
  void MaybeFinishClose(const std::shared_ptr<Conn>& conn);
  void Teardown(const std::shared_ptr<Conn>& conn);
  void WakeLoop();
  /// Poll timeout until the next idle deadline; -1 when none.
  int NextTimeoutMs() const;
  WireServerCounters WireCounters() const;

  RequestDispatcher dispatcher_;
  ReactorServerOptions options_;
  Listener listener_;
  std::unique_ptr<Poller> poller_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;  ///< == wake_read_fd_ with eventfd
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<PendingScore>> pendings_;
  std::thread serve_thread_;
  std::atomic<bool> shutting_down_{false};
  std::mutex shutdown_mutex_;  // serializes Shutdown vs destructor

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> accept_failures_{0};
  std::atomic<uint64_t> backpressure_pauses_{0};
  std::atomic<uint64_t> idle_closed_{0};
};

}  // namespace wmp::net

#endif  // WMP_NET_REACTOR_SERVER_H_
