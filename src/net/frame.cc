#include "net/frame.h"

#include <cerrno>
#include <cstring>
#include <sys/types.h>
#include <unistd.h>

#include "net/fault_inject.h"
#include "net/socket.h"
#include "util/strings.h"

namespace wmp::net {

namespace {

constexpr uint32_t kFrameMagic = 0x32464D57;  // "WMF2" little-endian
constexpr size_t kHeaderBytes = kFrameHeaderBytes;

// Writes the 13-byte frame header for a payload of `len` bytes.
void EncodeHeader(FrameType type, uint32_t id, uint32_t len, char* out) {
  const uint32_t magic = kFrameMagic;
  std::memcpy(out, &magic, sizeof(magic));
  out[4] = static_cast<char>(type);
  std::memcpy(out + 5, &id, sizeof(id));
  std::memcpy(out + 9, &len, sizeof(len));
}

// Blocking read of exactly n bytes. `*got` reports progress so the caller
// can distinguish clean EOF (0 bytes) from a truncated frame. With
// SO_RCVTIMEO armed, a peer that stalls mid-frame fails the read with
// kDeadlineExceeded instead of parking the thread forever.
Status ReadAll(int fd, char* data, size_t n, size_t* got) {
  *got = 0;
  while (*got < n) {
    const ssize_t r = ReadSome(fd, data + *got, n - *got);
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("frame read timed out");
      }
      return Status::IOError(
          StrFormat("frame read failed: %s", std::strerror(errno)));
    }
    if (r == 0) return Status::OK();  // EOF; caller checks *got
    *got += static_cast<size_t>(r);
  }
  return Status::OK();
}

// Checks the first four bytes of a frame.
Status CheckMagic(const char* header) {
  uint32_t magic = 0;
  std::memcpy(&magic, header, sizeof(magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument(
        StrFormat("bad frame magic 0x%08x (peer is not speaking the WMF2 "
                  "protocol, or the stream desynchronized)",
                  magic));
  }
  return Status::OK();
}

// Fills `frame`'s type and id from the header and returns its payload
// length.
Result<uint32_t> DecodeHeader(const char* header, const FrameLimits& limits,
                              Frame* frame) {
  WMP_RETURN_IF_ERROR(CheckMagic(header));
  frame->type = static_cast<FrameType>(static_cast<uint8_t>(header[4]));
  std::memcpy(&frame->id, header + 5, sizeof(frame->id));
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, header + 9, sizeof(payload_len));
  if (static_cast<size_t>(payload_len) > limits.max_payload_bytes) {
    return Status::InvalidArgument(
        StrFormat("frame payload of %u bytes exceeds the %zu-byte limit",
                  payload_len, limits.max_payload_bytes));
  }
  return payload_len;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kPublishRequest: return "publish-request";
    case FrameType::kPublishResponse: return "publish-response";
    case FrameType::kStatsRequest: return "stats-request";
    case FrameType::kStatsResponse: return "stats-response";
    case FrameType::kRollbackRequest: return "rollback-request";
    case FrameType::kRollbackResponse: return "rollback-response";
    case FrameType::kScoreRequest: return "score-request";
    case FrameType::kScoreResponse: return "score-response";
    case FrameType::kHealthRequest: return "health-request";
    case FrameType::kHealthResponse: return "health-response";
    case FrameType::kStageRequest: return "stage-request";
    case FrameType::kStageResponse: return "stage-response";
    case FrameType::kCommitRequest: return "commit-request";
    case FrameType::kCommitResponse: return "commit-response";
    case FrameType::kAbortRequest: return "abort-request";
    case FrameType::kAbortResponse: return "abort-response";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, uint32_t id,
                        std::string_view payload) {
  std::string out(kHeaderBytes, '\0');
  EncodeHeader(type, id, static_cast<uint32_t>(payload.size()), out.data());
  out.append(payload.data(), payload.size());
  return out;
}

Result<Frame> DecodeFrame(std::string_view buf, const FrameLimits& limits,
                          size_t* consumed) {
  *consumed = 0;
  // The magic is judged as soon as it is in, so a peer speaking another
  // protocol (WMF1's 9-byte header included) is refused before it has
  // sent a whole header of this one.
  if (buf.size() >= sizeof(kFrameMagic)) {
    WMP_RETURN_IF_ERROR(CheckMagic(buf.data()));
  }
  if (buf.size() < kHeaderBytes) {
    return Status::OutOfRange("incomplete frame header");
  }
  Frame frame;
  WMP_ASSIGN_OR_RETURN(const uint32_t payload_len,
                       DecodeHeader(buf.data(), limits, &frame));
  if (buf.size() < kHeaderBytes + payload_len) {
    return Status::OutOfRange("incomplete frame payload");
  }
  frame.payload.assign(buf.data() + kHeaderBytes, payload_len);
  *consumed = kHeaderBytes + payload_len;
  return frame;
}

Status WriteFrame(int fd, FrameType type, uint32_t id,
                  std::string_view payload) {
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("frame payload exceeds 4 GB");
  }
  // An armed FaultInjector takes over the whole write (chaos tests), and its
  // scripts count byte offsets in one header+payload buffer.
  if (FaultInjector* chaos = ActiveFaultInjector()) {
    const std::string wire = EncodeFrame(type, id, payload);
    return chaos->InjectedWrite(fd, wire.data(), wire.size());
  }
  // Otherwise the header and the caller's payload go out as two iovecs, so
  // the payload is never copied; a short write resumes where it stopped.
  // One write loop per frame: a frame is never interleaved with another
  // thread's frame as long as callers serialize per fd. With SO_SNDTIMEO
  // armed on the fd a stalled peer surfaces as kDeadlineExceeded, not an
  // indefinite block.
  char header[kHeaderBytes];
  EncodeHeader(type, id, static_cast<uint32_t>(payload.size()), header);
  const size_t total = kHeaderBytes + payload.size();
  size_t off = 0;
  while (off < total) {
    struct iovec iov[2];
    int count = 0;
    if (off < kHeaderBytes) {
      iov[count++] = {header + off, kHeaderBytes - off};
    }
    const size_t payload_sent = off > kHeaderBytes ? off - kHeaderBytes : 0;
    if (payload_sent < payload.size()) {
      iov[count++] = {const_cast<char*>(payload.data()) + payload_sent,
                      payload.size() - payload_sent};
    }
    const ssize_t w = SendSomeV(fd, iov, count);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("frame write timed out");
      }
      return Status::IOError(
          StrFormat("frame write failed: %s", std::strerror(errno)));
    }
    if (w == 0) return Status::IOError("frame write made no progress");
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<Frame> ReadFrame(int fd, const FrameLimits& limits) {
  if (FaultInjector* chaos = ActiveFaultInjector()) {
    WMP_RETURN_IF_ERROR(chaos->BeforeRead(fd));
  }
  char header[kHeaderBytes];
  size_t got = 0;
  WMP_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header), &got));
  if (got == 0) return Status::NotFound("peer disconnected");
  if (got < sizeof(header)) {
    return Status::IOError(
        StrFormat("connection closed inside a frame header (%zu/%zu bytes)",
                  got, sizeof(header)));
  }
  Frame frame;
  WMP_ASSIGN_OR_RETURN(const uint32_t payload_len,
                       DecodeHeader(header, limits, &frame));
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    WMP_RETURN_IF_ERROR(ReadAll(fd, frame.payload.data(), payload_len, &got));
    if (got < payload_len) {
      return Status::IOError(
          StrFormat("connection closed inside a frame payload (%zu/%u bytes)",
                    got, payload_len));
    }
  }
  return frame;
}

}  // namespace wmp::net
