#ifndef WMP_NET_FRAME_H_
#define WMP_NET_FRAME_H_

/// \file frame.h
/// Length-prefixed binary frame codec — the unit of the wire protocol.
///
/// Every message between net::WireClient and net::ReactorServer is one
/// frame:
///
///   offset 0   u32  magic  0x32464D57 ("WMF2", little-endian)
///   offset 4   u8   type   (FrameType)
///   offset 5   u32  request id
///   offset 9   u32  payload length in bytes
///   offset 13  payload    (opaque; see net/protocol.h for the encodings)
///
/// The request id is how an answer finds its request: a client numbers
/// each request it sends, and the server echoes that number on the
/// answer, whatever order answers leave in. Id 0 is never issued; the
/// server uses it for an error it cannot pin on one request (a stream
/// that no longer frames). This codec is the only code that knows where
/// the id sits.
///
/// The magic lets a receiver reject a desynchronized or non-protocol peer
/// (a WMF1 peer included) immediately instead of interpreting garbage as
/// a length; the length prefix is validated against
/// `FrameLimits::max_payload_bytes` *before* any payload byte is read, so
/// an adversarial or corrupt header cannot make the receiver allocate or
/// block unboundedly.
///
/// The fd-based I/O helpers speak blocking POSIX descriptors (TCP or Unix
/// sockets; plain pipes work too, which the tests use). Both directions
/// handle partial transfers: `ReadFrame` loops until the header and payload
/// are complete, `WriteFrame` loops over short writes — the kernel is free
/// to split a frame at any byte boundary and the codec must not care.
/// Clean EOF *between* frames is reported as `StatusCode::kNotFound`
/// (a peer hanging up politely); EOF *inside* a frame is an IOError.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace wmp::net {

/// Message kinds carried by a frame. Requests are even, their responses
/// odd, so a response type is always `request | 1`. Values 2, 3 and 253
/// (retired frame types) stay unassigned; a server answers them with
/// kError like any unknown type.
enum class FrameType : uint8_t {
  kPing = 0,
  kPong = 1,
  kPublishRequest = 4,
  kPublishResponse = 5,
  kStatsRequest = 6,
  kStatsResponse = 7,
  kRollbackRequest = 8,
  kRollbackResponse = 9,
  /// \name Scoring.
  ///
  /// Payload is the ScoreRequest/ScoreResponse encoding. The server
  /// answers score frames in COMPLETION order, every other request as it
  /// parses it; the request id matches either kind to its request.
  /// @{
  kScoreRequest = 10,
  kScoreResponse = 11,
  /// @}
  /// \name Fleet control plane (net::FleetRouter <-> predictor nodes).
  ///
  /// kHealth is the router's liveness/epoch probe: the response carries
  /// the node's current registry epoch, so the router detects both a dead
  /// node (no response inside the deadline) and a node that silently
  /// diverged from the fleet's target epoch (restarted, missed a rollout).
  ///
  /// kStage/kCommit/kAbort are the two-phase publish. Stage carries a full
  /// PublishRequest payload; the node validates the artifact (checksum +
  /// deserialize) and parks it WITHOUT installing, answering with a
  /// ticket. Commit names the ticket and atomically installs the parked
  /// artifact (a PublishAll). Abort discards a parked artifact and is
  /// idempotent — the router's compensation path may abort a node that
  /// never staged. See net/fleet.h for the coordination protocol.
  /// @{
  kHealthRequest = 12,
  kHealthResponse = 13,
  kStageRequest = 14,
  kStageResponse = 15,
  kCommitRequest = 16,
  kCommitResponse = 17,
  kAbortRequest = 18,
  kAbortResponse = 19,
  /// @}
  /// Server-side failure report: payload is a protocol::ErrorBody. With a
  /// nonzero id it fails that one request; with id 0, the stream.
  kError = 255,
};

const char* FrameTypeName(FrameType type);

/// Fixed frame-header size: u32 magic + u8 type + u32 request id + u32
/// payload length. Incremental decoders (the reactor) and header-crafting
/// tests need the number; the codec below is the only thing that
/// interprets the bytes.
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4 + 4;

/// One frame.
struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
  /// The request this frame is or answers (0: none; see the file comment).
  uint32_t id = 0;
};

/// Receiver-side bounds.
struct FrameLimits {
  /// Frames whose header announces more than this many payload bytes are
  /// rejected before any payload is read (default 64 MB — a full score
  /// request for a ~100k-query log fits comfortably).
  size_t max_payload_bytes = 64ull << 20;
};

/// Serializes a frame into a byte string (header + payload) — the exact
/// bytes WriteFrame puts on the wire.
std::string EncodeFrame(FrameType type, uint32_t id,
                        std::string_view payload);

/// Parses one complete frame from `buf`. Returns the frame and sets
/// `*consumed` to the bytes used. Fails with InvalidArgument on a bad
/// magic or an oversize announced length, and OutOfRange when `buf` holds
/// only a frame prefix (the streaming caller should read more bytes).
Result<Frame> DecodeFrame(std::string_view buf, const FrameLimits& limits,
                          size_t* consumed);

/// Writes one frame to a blocking descriptor, looping over short writes
/// and EINTR. Safe on sockets and pipes; socket writes suppress SIGPIPE.
/// The header and `payload` go out as one gather write, without copying
/// the payload.
Status WriteFrame(int fd, FrameType type, uint32_t id,
                  std::string_view payload);

/// Reads one frame from a blocking descriptor, looping over partial reads.
/// A clean EOF before the first header byte returns NotFound ("peer
/// disconnected"); EOF mid-frame, a bad magic, or an oversize length are
/// errors.
Result<Frame> ReadFrame(int fd, const FrameLimits& limits = {});

}  // namespace wmp::net

#endif  // WMP_NET_FRAME_H_
