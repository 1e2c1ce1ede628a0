#include "net/async_client.h"

#include <sys/socket.h>

#include <utility>

#include "net/socket.h"
#include "util/strings.h"

namespace wmp::net {

Result<std::unique_ptr<AsyncWireClient>> AsyncWireClient::Connect(
    const std::string& address, AsyncWireClientOptions options) {
  WMP_ASSIGN_OR_RETURN(const int fd,
                       ConnectTo(address, options.connect_timeout_ms));
  // The socket stays BLOCKING: the reader thread parks in ReadFrame and
  // writes flow-control themselves via the in-flight window — only the
  // server side needs readiness multiplexing.
  return std::unique_ptr<AsyncWireClient>(
      new AsyncWireClient(fd, options));
}

AsyncWireClient::AsyncWireClient(int fd, AsyncWireClientOptions options)
    : options_(options), fd_(fd) {
  reader_ = std::thread([this] { ReaderLoop(); });
  if (options_.request_timeout_ms > 0) {
    timer_ = std::thread([this] { TimerLoop(); });
  }
}

AsyncWireClient::~AsyncWireClient() { Close(); }

Result<std::future<Result<ScoreResponse>>> AsyncWireClient::SubmitScore(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  uint32_t correlation_id = 0;
  std::future<Result<ScoreResponse>> future;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    window_cv_.wait(lock, [this] {
      return dead_ || pendings_.size() < options_.max_inflight;
    });
    if (dead_) return death_status_;
    correlation_id = next_correlation_++;
    if (next_correlation_ == 0) next_correlation_ = 1;  // 0 = never issued
    Pending pending;
    pending.deadline =
        options_.request_timeout_ms > 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.request_timeout_ms)
            : std::chrono::steady_clock::time_point::max();
    auto [it, inserted] = pendings_.emplace(correlation_id,
                                            std::move(pending));
    future = it->second.promise.get_future();
  }
  timer_cv_.notify_one();  // a new (possibly earliest) deadline exists
  const std::string payload = EncodePipelinedPayload(
      correlation_id, EncodeScoreRequest(tenant, records, batches));
  Status written;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    written =
        WriteFrame(fd_, FrameType::kScoreRequestPipelined, payload);
  }
  if (!written.ok()) {
    // The stream is broken for everyone, not just this request; the
    // reader notices EOF too, but whoever sees it first reports it.
    FailAll(written);
    return written;
  }
  return future;
}

void AsyncWireClient::ReaderLoop() {
  FrameLimits limits;
  limits.max_payload_bytes = options_.max_payload_bytes;
  for (;;) {
    auto frame = ReadFrame(fd_, limits);
    if (!frame.ok()) {
      // NotFound = clean EOF. Either way the stream is over; anything
      // unanswered will never be answered.
      FailAll(frame.status().IsNotFound()
                  ? Status::IOError(
                        "server closed the connection with requests in "
                        "flight")
                  : frame.status());
      return;
    }
    switch (frame->type) {
      case FrameType::kScoreResponsePipelined:
      case FrameType::kErrorPipelined: {
        std::string body;
        auto correlation_id = DecodePipelinedPayload(frame->payload, &body);
        if (!correlation_id.ok()) {
          FailAll(correlation_id.status());
          return;
        }
        Result<ScoreResponse> outcome = [&]() -> Result<ScoreResponse> {
          if (frame->type == FrameType::kErrorPipelined) {
            return StatusFromError(DecodeErrorBody(body));
          }
          return DecodeScoreResponse(body);
        }();
        std::promise<Result<ScoreResponse>> promise;
        bool matched = false;
        bool was_expired = false;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = pendings_.find(*correlation_id);
          if (it != pendings_.end()) {
            promise = std::move(it->second.promise);
            pendings_.erase(it);
            matched = true;
          } else if (expired_.erase(*correlation_id) > 0) {
            // The deadline already failed this request's future; the slow
            // answer is dropped and the stream carries on — lateness is
            // not desynchronization.
            was_expired = true;
          }
        }
        if (was_expired) break;
        if (!matched) {
          // A response for a request we never made: the server and client
          // disagree about the stream — unrecoverable.
          FailAll(Status::Internal(StrFormat(
              "unmatched correlation id %u on pipelined response",
              *correlation_id)));
          return;
        }
        promise.set_value(std::move(outcome));
        window_cv_.notify_one();
        break;
      }
      case FrameType::kError:
        // Stream-level indictment (e.g. a frame the server could not even
        // attribute to a request).
        FailAll(StatusFromError(DecodeErrorBody(frame->payload)));
        return;
      default:
        FailAll(Status::Internal(
            StrFormat("unexpected %s frame on pipelined stream",
                      FrameTypeName(frame->type))));
        return;
    }
  }
}

void AsyncWireClient::TimerLoop() {
  const auto never = std::chrono::steady_clock::time_point::max();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (dead_) return;
    auto earliest = never;
    for (const auto& [correlation_id, pending] : pendings_) {
      if (pending.deadline < earliest) earliest = pending.deadline;
    }
    if (earliest == never) {
      timer_cv_.wait(lock);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now < earliest) {
      timer_cv_.wait_until(lock, earliest);
      continue;
    }
    // Expire every overdue request: fail ITS future, remember its id so
    // the eventual response is dropped instead of killing the stream.
    std::vector<std::promise<Result<ScoreResponse>>> overdue;
    for (auto it = pendings_.begin(); it != pendings_.end();) {
      if (it->second.deadline <= now) {
        expired_.insert(it->first);
        overdue.push_back(std::move(it->second.promise));
        it = pendings_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    for (auto& promise : overdue) {
      promise.set_value(Status::DeadlineExceeded(
          StrFormat("no response within %d ms (stream still up; only this "
                    "request failed)",
                    options_.request_timeout_ms)));
    }
    window_cv_.notify_all();
    lock.lock();
  }
}

void AsyncWireClient::FailAll(const Status& status) {
  std::unordered_map<uint32_t, Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dead_) {
      dead_ = true;
      death_status_ = status;
    }
    orphans.swap(pendings_);
    expired_.clear();
  }
  for (auto& [correlation_id, pending] : orphans) {
    pending.promise.set_value(death_status_);
  }
  window_cv_.notify_all();
  timer_cv_.notify_all();
}

size_t AsyncWireClient::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pendings_.size();
}

bool AsyncWireClient::alive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !dead_;
}

void AsyncWireClient::Close() {
  FailAll(Status::FailedPrecondition("client closed"));
  // Shut down, join, THEN close: shutdown wakes the reader out of a parked
  // ReadFrame (FailAll already woke the timer) while the fd number stays
  // ours, so no thread can read a descriptor the kernel has handed to
  // another connection. A concurrent SubmitScore writes under
  // write_mutex_ and sees either the shut-down socket or fd_ == -1.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  if (timer_.joinable()) timer_.join();
  std::lock_guard<std::mutex> lock(write_mutex_);
  CloseFd(fd_);
  fd_ = -1;
}

}  // namespace wmp::net
