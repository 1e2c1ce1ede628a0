#ifndef WMP_NET_SOCKET_H_
#define WMP_NET_SOCKET_H_

/// \file socket.h
/// Address parsing and socket setup shared by the wire-protocol endpoints:
/// the event-loop net::ReactorServer and its client, net::WireClient.
///
/// Addresses come in two spellings:
///
///   "unix:/path/to.sock"   a Unix-domain stream socket (the deployment
///                          default for a predictor co-located with its
///                          DBMS — no TCP stack on the hot path)
///   "host:port"            IPv4 TCP; "127.0.0.1:0" binds an ephemeral
///                          port, reported back by Listener::port()
///
/// Everything here is thin POSIX. Sockets are created blocking (what the
/// client wants); the reactor flips its listener and every accepted
/// connection to nonblocking via SetNonBlocking and drives them from one
/// poll/epoll loop (see reactor_server.h).

#include <sys/types.h>
#include <sys/uio.h>

#include <string>

#include "util/status.h"

namespace wmp::net {

/// A bound, listening server socket plus the bookkeeping to tear it down.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept { *this = std::move(other); }
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on `address` ("unix:PATH" or "host:port"). A Unix
  /// path is unlinked first (a crashed predecessor's stale socket must not
  /// block a restart) and unlinked again on Close.
  Status Listen(const std::string& address, int backlog = 16);

  /// Blocks until a client connects; returns the connection fd. Fails with
  /// FailedPrecondition after Close(). The reactor accepts nonblocking on
  /// fd() instead; this serves hand-rolled test servers (e.g. one that
  /// accepts and then never answers).
  Result<int> Accept();

  /// Closes the listening socket and removes the Unix socket file.
  /// Idempotent. Must not race an Accept on another thread: a closed fd
  /// number can be reused before the blocked call notices.
  void Close();

  bool listening() const { return fd_ >= 0; }
  /// Raw listening descriptor — the reactor registers it with its poller
  /// and accepts nonblocking; -1 when not listening. The Listener keeps
  /// ownership (Close() still tears it down).
  int fd() const { return fd_; }
  /// Resolved TCP port (meaningful after Listen on "host:0"); 0 for Unix.
  int port() const { return port_; }
  /// The address clients should connect to (ephemeral port resolved).
  const std::string& address() const { return address_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::string address_;
  std::string unix_path_;  // empty for TCP
};

/// Connects a blocking stream socket to `address`; returns the fd.
/// With `timeout_ms > 0` the connect itself is bounded: the socket is
/// flipped nonblocking, connect(2) is raced against a poll deadline, and
/// an unreachable or black-holed peer surfaces as kDeadlineExceeded
/// instead of hanging for the kernel's SYN-retry eternity. The returned
/// fd is blocking either way.
Result<int> ConnectTo(const std::string& address, int timeout_ms = 0);

/// Arms SO_RCVTIMEO and SO_SNDTIMEO on `fd` with `timeout_ms` (<= 0
/// disables both). Once armed, a stalled read/write fails with EAGAIN,
/// which ReadSome/SendSome callers surface as kDeadlineExceeded. A no-op
/// on non-socket descriptors (pipes in tests), so frame I/O code need not
/// care.
Status SetIoDeadlines(int fd, int timeout_ms);

/// \name Shared low-level I/O — the ONE place src/net handles SIGPIPE and
/// EINTR, instead of per-call-site patches.
///
/// Every byte src/net puts on a descriptor goes through SendSome (send(2)
/// with MSG_NOSIGNAL so a peer hangup is an EPIPE errno, never a
/// process-killing SIGPIPE; falls back to write(2) for non-socket fds) or
/// its gather form SendSomeV (sendmsg(2) with MSG_NOSIGNAL, else
/// writev(2)), and every byte read comes through ReadSome. All three retry
/// EINTR internally and otherwise behave exactly like the syscall: bytes
/// transferred, 0 on EOF (reads), or -1 with errno set (EAGAIN when a
/// deadline armed by SetIoDeadlines expires, or on a nonblocking fd).
/// @{
ssize_t SendSome(int fd, const void* data, size_t n);
ssize_t SendSomeV(int fd, const struct iovec* iov, int iovcnt);
ssize_t ReadSome(int fd, void* data, size_t n);
/// @}

/// Closes a connection fd, first shutting both directions down so a peer
/// blocked in read() wakes immediately. Safe on -1.
void CloseConnection(int fd);

/// Sets or clears O_NONBLOCK on `fd`. The reactor flips every accepted
/// connection (and the listener itself) to nonblocking; the client never
/// calls this.
Status SetNonBlocking(int fd, bool nonblocking);

/// EINTR-correct close(2), safe on -1 — the one way every endpoint
/// releases a descriptor it owns. On Linux an EINTR'd close has already
/// freed the fd, so retrying could close a descriptor another thread just
/// received; this helper closes exactly once and swallows EINTR instead.
void CloseFd(int fd);

}  // namespace wmp::net

#endif  // WMP_NET_SOCKET_H_
