#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace wmp::net {

namespace {

constexpr char kUnixPrefix[] = "unix:";

struct ParsedAddress {
  bool is_unix = false;
  std::string unix_path;
  std::string host;
  int port = 0;
};

Result<ParsedAddress> ParseAddress(const std::string& address) {
  ParsedAddress parsed;
  if (StartsWith(address, kUnixPrefix)) {
    parsed.is_unix = true;
    parsed.unix_path = address.substr(sizeof(kUnixPrefix) - 1);
    if (parsed.unix_path.empty()) {
      return Status::InvalidArgument("empty unix socket path");
    }
    sockaddr_un sun{};
    if (parsed.unix_path.size() >= sizeof(sun.sun_path)) {
      return Status::InvalidArgument(
          StrFormat("unix socket path longer than %zu bytes: %s",
                    sizeof(sun.sun_path) - 1, parsed.unix_path.c_str()));
    }
    return parsed;
  }
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument(
        "address must be unix:PATH or host:port: " + address);
  }
  parsed.host = address.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
    return Status::InvalidArgument("bad port in address: " + address);
  }
  parsed.port = static_cast<int>(port);
  return parsed;
}

Result<sockaddr_in> ToSockaddrIn(const ParsedAddress& parsed) {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(static_cast<uint16_t>(parsed.port));
  if (::inet_pton(AF_INET, parsed.host.c_str(), &sin.sin_addr) != 1) {
    return Status::InvalidArgument(
        "host must be an IPv4 literal (e.g. 127.0.0.1): " + parsed.host);
  }
  return sin;
}

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    address_ = std::move(other.address_);
    unix_path_ = std::move(other.unix_path_);
  }
  return *this;
}

Status Listener::Listen(const std::string& address, int backlog) {
  if (fd_ >= 0) return Status::FailedPrecondition("listener already bound");
  WMP_ASSIGN_OR_RETURN(ParsedAddress parsed, ParseAddress(address));
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_UNIX)");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, parsed.unix_path.c_str(),
                 sizeof(sun.sun_path) - 1);
    ::unlink(parsed.unix_path.c_str());  // stale socket from a dead server
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) < 0) {
      ::close(fd);
      return Errno("bind(unix)");
    }
    if (::listen(fd, backlog) < 0) {
      ::close(fd);
      ::unlink(parsed.unix_path.c_str());
      return Errno("listen(unix)");
    }
    fd_ = fd;
    unix_path_ = parsed.unix_path;
    address_ = address;
    return Status::OK();
  }
  WMP_ASSIGN_OR_RETURN(sockaddr_in sin, ToSockaddrIn(parsed));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) < 0) {
    ::close(fd);
    return Errno("bind(tcp)");
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    return Errno("listen(tcp)");
  }
  // Resolve the ephemeral port so callers can hand out a connectable
  // address after binding host:0.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    return Errno("getsockname");
  }
  fd_ = fd;
  port_ = ntohs(bound.sin_port);
  address_ = StrFormat("%s:%d", parsed.host.c_str(), port_);
  return Status::OK();
}

Result<int> Listener::Accept() {
  if (fd_ < 0) return Status::FailedPrecondition("listener closed");
  for (;;) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      // Score requests are one large frame each way; Nagle only adds
      // latency to the response tail. Harmless ENOTSUP on Unix sockets.
      const int one = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return conn;
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

void Listener::Close() {
  CloseFd(fd_);
  fd_ = -1;
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

namespace {

// connect(2) with an optional deadline. With a timeout the socket goes
// nonblocking for the duration: EINPROGRESS + poll(POLLOUT) + SO_ERROR is
// the portable bounded-connect idiom; the fd is flipped back to blocking
// before it is returned either way.
Status ConnectWithDeadline(int fd, const sockaddr* addr, socklen_t len,
                           const std::string& address, int timeout_ms) {
  const auto connect_error = [&address](const char* what) {
    return Status::IOError(
        StrFormat("%s(%s): %s", what, address.c_str(), std::strerror(errno)));
  };
  if (timeout_ms <= 0) {
    int rc;
    do {
      rc = ::connect(fd, addr, len);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) return connect_error("connect");
    return Status::OK();
  }
  WMP_RETURN_IF_ERROR(SetNonBlocking(fd, true));
  int rc;
  do {
    rc = ::connect(fd, addr, len);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno != EINPROGRESS) return connect_error("connect");
  if (rc < 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) return connect_error("poll(connect)");
    if (rc == 0) {
      return Status::DeadlineExceeded(
          StrFormat("connect(%s) timed out after %d ms", address.c_str(),
                    timeout_ms));
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) < 0) {
      return connect_error("getsockopt(SO_ERROR)");
    }
    if (so_error != 0) {
      errno = so_error;
      return connect_error("connect");
    }
  }
  return SetNonBlocking(fd, false);
}

}  // namespace

Result<int> ConnectTo(const std::string& address, int timeout_ms) {
  WMP_ASSIGN_OR_RETURN(ParsedAddress parsed, ParseAddress(address));
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_UNIX)");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, parsed.unix_path.c_str(),
                 sizeof(sun.sun_path) - 1);
    if (Status st = ConnectWithDeadline(fd, reinterpret_cast<sockaddr*>(&sun),
                                        sizeof(sun), address, timeout_ms);
        !st.ok()) {
      ::close(fd);
      return st;
    }
    return fd;
  }
  WMP_ASSIGN_OR_RETURN(sockaddr_in sin, ToSockaddrIn(parsed));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  if (Status st = ConnectWithDeadline(fd, reinterpret_cast<sockaddr*>(&sin),
                                      sizeof(sin), address, timeout_ms);
      !st.ok()) {
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SetIoDeadlines(int fd, int timeout_ms) {
  const int ms = std::max(timeout_ms, 0);
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  for (const int opt : {SO_RCVTIMEO, SO_SNDTIMEO}) {
    if (::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv)) < 0) {
      if (errno == ENOTSOCK) return Status::OK();  // pipes in tests
      return Errno("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)");
    }
  }
  return Status::OK();
}

ssize_t SendSome(int fd, const void* data, size_t n) {
  for (;;) {
#ifdef MSG_NOSIGNAL
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::write(fd, data, n);
#else
    ssize_t w = ::write(fd, data, n);
#endif
    if (w < 0 && errno == EINTR) continue;
    return w;
  }
}

ssize_t SendSomeV(int fd, const struct iovec* iov, int iovcnt) {
  for (;;) {
#ifdef MSG_NOSIGNAL
    msghdr msg{};
    msg.msg_iov = const_cast<struct iovec*>(iov);
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::writev(fd, iov, iovcnt);
#else
    ssize_t w = ::writev(fd, iov, iovcnt);
#endif
    if (w < 0 && errno == EINTR) continue;
    return w;
  }
}

ssize_t ReadSome(int fd, void* data, size_t n) {
  for (;;) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

void CloseConnection(int fd) {
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);
  CloseFd(fd);
}

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd < 0) return;
  // Exactly one close: on Linux EINTR means the fd is already released, and
  // a retry would race a concurrent accept()/socket() reusing the number.
  ::close(fd);
}

}  // namespace wmp::net
