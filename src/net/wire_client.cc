#include "net/wire_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/backoff.h"
#include "net/socket.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/strings.h"

namespace wmp::net {

namespace {

using Clock = std::chrono::steady_clock;
constexpr Clock::time_point kNever = Clock::time_point::max();

// Reads the next frame, giving up at `deadline` with OutOfRange (the
// codec's "nothing yet" code; ReadFrame never returns it).
Result<Frame> ReadBefore(int fd, Clock::time_point deadline) {
  if (deadline != kNever) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
    pollfd ready{fd, POLLIN, 0};
    const int n = ::poll(&ready, 1,
                         static_cast<int>(std::max<int64_t>(left.count(), 0)));
    if (n == 0 || (n < 0 && errno == EINTR)) {
      return Status::OutOfRange("no frame before the deadline");
    }
  }
  return ReadFrame(fd);
}

Result<std::vector<Result<double>>> ScoreOutcomes(const Frame& frame,
                                                  size_t workloads) {
  if (frame.type == FrameType::kError) {
    return StatusFromError(DecodeErrorBody(frame.payload));
  }
  WMP_ASSIGN_OR_RETURN(ScoreResponse response,
                       DecodeScoreResponse(frame.payload));
  if (response.size() != workloads) {
    return Status::Internal(
        StrFormat("server answered %zu workloads for a %zu-workload request",
                  response.size(), workloads));
  }
  std::vector<Result<double>> outcomes;
  outcomes.reserve(response.size());
  for (size_t i = 0; i < response.size(); ++i) {
    if (response.ok[i]) {
      outcomes.emplace_back(response.predictions[i]);
    } else {
      outcomes.emplace_back(Status::Internal(response.errors[i]));
    }
  }
  return outcomes;
}

}  // namespace

/// One request on the wire, answered by the frame that echoes its id.
struct WireClient::Call {
  Clock::time_point deadline = kNever;
  /// Set once: the answer, or why the request failed.
  std::optional<Result<Frame>> response;
};

/// One connection. Callers using it hold a reference, so the descriptor
/// is closed only after the last of them lets go: a dead stream's fd
/// number is never reused under a reader or a writer.
struct WireClient::Stream {
  explicit Stream(int fd) : fd(fd) {}
  ~Stream() { CloseFd(fd); }
  const int fd;
  // The rest is guarded by WireClient::mutex_.
  bool dead = false;
  Status death;
  bool reading = false;  ///< a waiting caller owns the read side
  std::unordered_map<uint32_t, std::shared_ptr<Call>> calls;  ///< unanswered
  /// Ids whose deadline passed; their late answers are dropped instead of
  /// indicting the stream.
  std::unordered_set<uint32_t> expired;
};

WireClient::WireClient(std::string address, WireClientOptions options)
    : address_(std::move(address)),
      options_(options),
      backoff_state_(options.jitter_seed ^
                     util::HashBytes(address_.data(), address_.size(),
                                     0x574D504A49545452ull)) {  // "WMPJITTR"
  options_.max_inflight = std::max<size_t>(options_.max_inflight, 1);
}

WireClient::~WireClient() { Close(); }

Status WireClient::Connect() {
  std::lock_guard<std::mutex> lock(mutex_);
  return LiveStream().status();
}

void WireClient::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const std::shared_ptr<Stream> open = stream_) {
    Kill(*open, Status::FailedPrecondition("connection closed"));
  }
}

bool WireClient::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stream_ != nullptr;
}

Result<std::shared_ptr<WireClient::Stream>> WireClient::LiveStream() {
  if (stream_ != nullptr && !stream_->reading && stream_->calls.empty()) {
    // Nothing is owed on an idle stream, so EOF on it means the server
    // hung up (e.g. its idle timeout). Reconnect now: a write into the
    // dead TCP stream would only fail at the response read, where a
    // non-idempotent request cannot resend. Bytes waiting instead are a
    // late answer to an expired request, which the next reader drops.
    char byte;
    const ssize_t n =
        ::recv(stream_->fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      const std::shared_ptr<Stream> idle = stream_;
      Kill(*idle, Status::IOError("server closed the idle connection"));
    }
  }
  if (stream_ == nullptr) {
    WMP_ASSIGN_OR_RETURN(const int fd,
                         ConnectTo(address_, options_.connect_timeout_ms));
    auto stream = std::make_shared<Stream>(fd);
    WMP_RETURN_IF_ERROR(SetIoDeadlines(fd, options_.request_timeout_ms));
    stream_ = std::move(stream);
  }
  return stream_;
}

template <typename Done>
void WireClient::ReadUntil(std::unique_lock<std::mutex>& lock, Stream& stream,
                           Done done) {
  for (;;) {
    const Clock::time_point deadline = ExpireOverdue(stream);
    if (done() || stream.dead) return;
    if (stream.reading) {
      // Another caller holds the socket; it hands our frame over, or
      // wakes us when it leaves so one of us can take the socket.
      const auto wake = [&] {
        return done() || stream.dead || !stream.reading;
      };
      if (deadline == kNever) {
        cv_.wait(lock, wake);
      } else {
        cv_.wait_until(lock, deadline, wake);
      }
      continue;
    }
    stream.reading = true;
    lock.unlock();
    Result<Frame> frame = ReadBefore(stream.fd, deadline);
    lock.lock();
    stream.reading = false;
    Deliver(stream, std::move(frame));
    cv_.notify_all();
  }
}

Result<WireClient::Pending> WireClient::Send(FrameType type,
                                             std::string_view payload) {
  Pending pending;
  pending.call_ = std::make_shared<Call>();
  uint32_t id = 0;
  // One writer at a time, so frames never interleave on the socket.
  std::unique_lock<std::mutex> write_lock(write_mutex_);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    WMP_ASSIGN_OR_RETURN(pending.stream_, LiveStream());
    Stream& stream = *pending.stream_;
    ReadUntil(lock, stream,
              [&] { return stream.calls.size() < options_.max_inflight; });
    if (stream.dead) return stream.death;
    id = next_id_++;
    if (next_id_ == 0) next_id_ = 1;
    stream.calls.emplace(id, pending.call_);
    if (options_.request_timeout_ms > 0) {
      pending.call_->deadline =
          Clock::now() + std::chrono::milliseconds(options_.request_timeout_ms);
    }
  }
  const Status written = WriteFrame(pending.stream_->fd, type, id, payload);
  write_lock.unlock();
  if (!written.ok()) {
    // At most a truncated frame reached the peer, which discards it
    // undecoded — but the stream position is lost for everyone.
    std::lock_guard<std::mutex> lock(mutex_);
    Kill(*pending.stream_, written);
    return written;
  }
  return pending;
}

Result<Frame> WireClient::Await(const Pending& pending) {
  Call& call = *pending.call_;
  std::unique_lock<std::mutex> lock(mutex_);
  ReadUntil(lock, *pending.stream_,
            [&] { return call.response.has_value(); });
  return std::move(*call.response);
}

void WireClient::Deliver(Stream& stream, Result<Frame> frame) {
  if (!frame.ok()) {
    if (frame.status().IsOutOfRange()) return;  // deadline poll: no frame
    Kill(stream, frame.status().IsNotFound()
                     ? Status::IOError("server closed the connection")
                     : frame.status());
    return;
  }
  auto it = stream.calls.find(frame->id);
  if (it != stream.calls.end()) {
    it->second->response.emplace(std::move(*frame));
    stream.calls.erase(it);
    return;
  }
  // Lateness is not desynchronization; an id never issued is. Id 0 is the
  // server's kError for a stream it can no longer frame.
  if (stream.expired.erase(frame->id) > 0) return;
  Kill(stream, frame->id == 0 && frame->type == FrameType::kError
                   ? StatusFromError(DecodeErrorBody(frame->payload))
                   : Status::Internal(StrFormat(
                         "unmatched request id %u on a %s frame", frame->id,
                         FrameTypeName(frame->type))));
}

Clock::time_point WireClient::ExpireOverdue(Stream& stream) {
  if (options_.request_timeout_ms <= 0 || stream.dead) return kNever;
  const Clock::time_point now = Clock::now();
  Clock::time_point earliest = kNever;
  for (auto it = stream.calls.begin(); it != stream.calls.end();) {
    Call& call = *it->second;
    if (call.deadline > now) {
      earliest = std::min(earliest, call.deadline);
      ++it;
      continue;
    }
    call.response.emplace(Status::DeadlineExceeded(
        StrFormat("no response within %d ms (stream still up; only this "
                  "request failed)",
                  options_.request_timeout_ms)));
    stream.expired.insert(it->first);
    it = stream.calls.erase(it);
    cv_.notify_all();
  }
  return earliest;
}

void WireClient::Kill(Stream& stream, const Status& why) {
  if (!stream.dead) {
    stream.dead = true;
    stream.death = why;
    // Wakes a reader parked in poll/read and a writer parked in send; the
    // descriptor itself closes when the last caller lets go.
    ::shutdown(stream.fd, SHUT_RDWR);
    for (auto& [id, call] : stream.calls) call->response.emplace(why);
    stream.calls.clear();
    stream.expired.clear();
  }
  if (stream_.get() == &stream) stream_.reset();
  cv_.notify_all();
}

Result<Frame> WireClient::RoundTrip(FrameType request,
                                    std::string_view payload,
                                    FrameType expected_response,
                                    bool idempotent) {
  // A failed *response read* may follow server-side execution, so only
  // idempotent requests retry across it; publish/rollback/commit surface
  // the error rather than risk applying a rollout twice. Retries pace
  // themselves with backoff + full jitter, so a fleet of clients retrying
  // against a recovering server doesn't arrive in synchronized waves.
  const int attempts = std::max(options_.max_attempts, 1);
  Status last_error = Status::OK();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      uint32_t delay_ms = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        delay_ms = BackoffDelayMs(&backoff_state_, attempt - 1,
                                  options_.backoff_base_ms,
                                  options_.backoff_cap_ms);
      }
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    auto pending = Send(request, payload);
    if (!pending.ok()) {
      last_error = pending.status();
      continue;
    }
    auto response = Await(*pending);
    if (!response.ok()) {
      last_error = response.status();
      if (!idempotent) return last_error;
      continue;
    }
    if (response->type == FrameType::kError) {
      // Protocol-level rejection: the connection is still framed and
      // reusable; only this request failed.
      return StatusFromError(DecodeErrorBody(response->payload));
    }
    if (response->type != expected_response) {
      std::lock_guard<std::mutex> lock(mutex_);
      Kill(*pending->stream_,
           Status::Internal("connection desynchronized"));
      return Status::Internal(
          StrFormat("expected %s frame, got %s",
                    FrameTypeName(expected_response),
                    FrameTypeName(response->type)));
    }
    return std::move(*response);
  }
  return last_error;
}

Status WireClient::Ping() {
  WMP_ASSIGN_OR_RETURN(Frame pong,
                       RoundTrip(FrameType::kPing, "wmp", FrameType::kPong));
  if (pong.payload != "wmp") {
    return Status::Internal("ping payload not echoed");
  }
  return Status::OK();
}

Result<std::vector<Result<double>>> WireClient::ScoreWorkloads(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  WMP_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(FrameType::kScoreRequest,
                EncodeScoreRequest(tenant, records, batches),
                FrameType::kScoreResponse));
  return ScoreOutcomes(frame, batches.size());
}

Result<WireClient::Pending> WireClient::SubmitScore(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  WMP_ASSIGN_OR_RETURN(
      Pending pending,
      Send(FrameType::kScoreRequest,
           EncodeScoreRequest(tenant, records, batches)));
  pending.workloads_ = batches.size();
  return pending;
}

Result<std::vector<Result<double>>> WireClient::Wait(Pending pending) {
  WMP_ASSIGN_OR_RETURN(Frame frame, Await(pending));
  return ScoreOutcomes(frame, pending.workloads_);
}

Result<uint64_t> WireClient::Publish(std::string_view name,
                                     const core::LearnedWmpModel& model) {
  BinaryWriter artifact;
  WMP_RETURN_IF_ERROR(model.Serialize(&artifact));
  PublishRequest request;
  request.model_name = std::string(name);
  request.model_bytes = artifact.buffer();
  // EncodePublishRequest checksums the artifact bytes; the server
  // recomputes over what it received and refuses the rollout on mismatch.
  WMP_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(FrameType::kPublishRequest, EncodePublishRequest(request),
                FrameType::kPublishResponse, /*idempotent=*/false));
  WMP_ASSIGN_OR_RETURN(PublishResponse response,
                       DecodePublishResponse(frame.payload));
  return response.registry_epoch;
}

Result<uint64_t> WireClient::Rollback(std::string_view name) {
  RollbackRequest request;
  request.model_name = std::string(name);
  WMP_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(FrameType::kRollbackRequest, EncodeRollbackRequest(request),
                FrameType::kRollbackResponse, /*idempotent=*/false));
  WMP_ASSIGN_OR_RETURN(RollbackResponse response,
                       DecodeRollbackResponse(frame.payload));
  return response.registry_epoch;
}

Result<StatsResponse> WireClient::Stats() {
  WMP_ASSIGN_OR_RETURN(Frame frame,
                       RoundTrip(FrameType::kStatsRequest, "",
                                 FrameType::kStatsResponse));
  return DecodeStatsResponse(frame.payload);
}

Result<HealthResponse> WireClient::Health(uint64_t nonce) {
  HealthRequest request;
  request.nonce = nonce;
  WMP_ASSIGN_OR_RETURN(
      Frame frame, RoundTrip(FrameType::kHealthRequest,
                             EncodeHealthRequest(request),
                             FrameType::kHealthResponse));
  WMP_ASSIGN_OR_RETURN(HealthResponse response,
                       DecodeHealthResponse(frame.payload));
  if (response.nonce != nonce) {
    Close();  // a stale probe answer means the stream desynchronized
    return Status::Internal(
        StrFormat("health probe nonce mismatch (sent %llu, got %llu)",
                  static_cast<unsigned long long>(nonce),
                  static_cast<unsigned long long>(response.nonce)));
  }
  return response;
}

Result<StageResponse> WireClient::Stage(std::string_view name,
                                        const std::string& model_bytes) {
  PublishRequest request;
  request.model_name = std::string(name);
  request.model_bytes = model_bytes;
  // Staging is idempotent (a resend parks the identical artifact under a
  // fresh ticket), so a lost stage RESPONSE is safe to retry — unlike
  // Commit below, which installs.
  WMP_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(FrameType::kStageRequest, EncodePublishRequest(request),
                FrameType::kStageResponse));
  WMP_ASSIGN_OR_RETURN(StageResponse response,
                       DecodeStageResponse(frame.payload));
  const uint64_t local_hash = ArtifactChecksum(model_bytes);
  if (response.artifact_hash != local_hash) {
    return Status::Internal(StrFormat(
        "node staged artifact %016llx but %016llx was sent",
        static_cast<unsigned long long>(response.artifact_hash),
        static_cast<unsigned long long>(local_hash)));
  }
  return response;
}

Result<PublishResponse> WireClient::Commit(uint64_t ticket) {
  TicketRequest request;
  request.ticket = ticket;
  WMP_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(FrameType::kCommitRequest, EncodeTicketRequest(request),
                FrameType::kCommitResponse, /*idempotent=*/false));
  return DecodePublishResponse(frame.payload);
}

Result<AbortResponse> WireClient::Abort(uint64_t ticket) {
  TicketRequest request;
  request.ticket = ticket;
  WMP_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(FrameType::kAbortRequest, EncodeTicketRequest(request),
                FrameType::kAbortResponse));
  return DecodeAbortResponse(frame.payload);
}

}  // namespace wmp::net
