#include "net/wire_client.h"

#include <poll.h>

#include <chrono>
#include <thread>
#include <utility>

#include "net/backoff.h"
#include "net/socket.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/strings.h"

namespace wmp::net {

WireClient::WireClient(std::string address, WireClientOptions options)
    : address_(std::move(address)),
      options_(options),
      backoff_state_(options.jitter_seed ^
                     util::HashBytes(address_.data(), address_.size(),
                                     0x574D504A49545452ull)) {}  // "WMPJITTR"

WireClient::~WireClient() { Close(); }

Status WireClient::Connect() {
  if (fd_ >= 0) {
    // A plain connection holds no unread bytes between round trips, so a
    // readable socket means the server hung up (e.g. its idle timeout).
    // Reconnect now: a write into the dead TCP stream would only fail at
    // the response read, where a non-idempotent request cannot resend.
    pollfd pending{fd_, POLLIN, 0};
    if (::poll(&pending, 1, 0) == 0) return Status::OK();
    Close();
  }
  WMP_ASSIGN_OR_RETURN(fd_, ConnectTo(address_, options_.connect_timeout_ms));
  if (Status st = SetIoDeadlines(fd_, options_.read_timeout_ms,
                                 options_.write_timeout_ms);
      !st.ok()) {
    Close();
    return st;
  }
  return Status::OK();
}

void WireClient::Close() {
  CloseConnection(fd_);
  fd_ = -1;
}

Result<Frame> WireClient::RoundTrip(FrameType request, std::string payload,
                                    FrameType expected_response,
                                    bool idempotent) {
  FrameLimits limits;
  limits.max_payload_bytes = options_.max_payload_bytes;
  // One transparent retry for failures that provably happened BEFORE the
  // server could have executed the request: Connect and WriteFrame
  // failures mean at most a truncated frame reached the peer (which it
  // discards undecoded), so any request is safe to resend. A failed
  // *response read* is different — the server may well have executed the
  // request and died writing back — so only idempotent requests (score,
  // ping, stats) retry across it; publish/rollback surface the error and
  // let the operator check registry state rather than risk applying a
  // rollout twice.
  // Retries pace themselves with bounded exponential backoff + full
  // jitter, so a fleet of clients retrying against a recovering server
  // doesn't arrive in synchronized waves.
  const int attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;
  Status last_error = Status::OK();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const uint32_t delay_ms =
          BackoffDelayMs(&backoff_state_, attempt - 1,
                         options_.backoff_base_ms, options_.backoff_cap_ms);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    if (Status st = Connect(); !st.ok()) {
      last_error = st;
      continue;
    }
    Status write = WriteFrame(fd_, request, payload);
    if (!write.ok()) {
      last_error = write;
      Close();
      continue;
    }
    auto response = ReadFrame(fd_, limits);
    if (!response.ok()) {
      last_error = response.status().IsNotFound()
                       ? Status::IOError("server closed the connection")
                       : response.status();
      Close();
      if (!idempotent) return last_error;
      continue;
    }
    if (response->type == FrameType::kError) {
      // Protocol-level rejection: the connection is still framed and
      // reusable; only this request failed.
      return StatusFromError(DecodeErrorBody(response->payload));
    }
    if (response->type != expected_response) {
      Close();  // desynchronized — do not reuse the stream
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
  WMP_ASSIGN_OR_RETURN(ScoreResponse response,
                       DecodeScoreResponse(frame.payload));
  if (response.size() != batches.size()) {
    return Status::Internal(
        StrFormat("server answered %zu workloads for a %zu-workload request",
                  response.size(), batches.size()));
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
