#include "net/dispatch.h"

#include <utility>

#include "util/io.h"
#include "util/strings.h"

namespace wmp::net {

Frame ErrorFrame(const Status& status) {
  ErrorBody error;
  error.code = static_cast<uint8_t>(status.code());
  error.message = status.message();
  return Frame{FrameType::kError, EncodeErrorBody(error)};
}

std::vector<std::future<Result<double>>> RequestDispatcher::SubmitScore(
    const ScoreRequest& request) const {
  // Submit every workload before anyone collects a future: the service
  // micro-batches the whole request into as few flushes as possible, which
  // is the entire point of batched score frames.
  std::vector<std::future<Result<double>>> futures;
  futures.reserve(request.batches.size());
  for (const core::WorkloadBatch& b : request.batches) {
    futures.push_back(
        service_->Submit(request.tenant, request.records, b.query_indices));
  }
  return futures;
}

Frame RequestDispatcher::BuildScoreResponse(
    std::vector<Result<double>> outcomes) {
  ScoreResponse response;
  response.ok.resize(outcomes.size());
  response.predictions.assign(outcomes.size(), 0.0);
  response.errors.resize(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].ok()) {
      response.ok[i] = 1;
      response.predictions[i] = *outcomes[i];
    } else {
      response.ok[i] = 0;
      response.errors[i] = outcomes[i].status().ToString();
    }
  }
  return Frame{FrameType::kScoreResponse, EncodeScoreResponse(response)};
}

Result<RequestDispatcher::StagedArtifact> RequestDispatcher::ValidateArtifact(
    const Frame& request) const {
  WMP_ASSIGN_OR_RETURN(PublishRequest decoded,
                       DecodePublishRequest(request.payload));
  BinaryReader reader(std::move(decoded.model_bytes));
  auto model = core::LearnedWmpModel::Deserialize(&reader);
  if (!model.ok()) {
    return Status(model.status().code(),
                  "artifact rejected: " + model.status().message());
  }
  StagedArtifact artifact;
  artifact.artifact_hash = decoded.artifact_hash;
  artifact.model_name = decoded.model_name.empty() ? default_model_name_
                                                   : decoded.model_name;
  artifact.model =
      std::make_shared<const core::LearnedWmpModel>(std::move(*model));
  return artifact;
}

Frame RequestDispatcher::Install(StagedArtifact artifact,
                                 FrameType answer) const {
  auto epoch = service_->PublishAll(std::move(artifact.model), registry_,
                                    artifact.model_name);
  if (!epoch.ok()) return ErrorFrame(epoch.status());
  PublishResponse response;
  response.registry_epoch = *epoch;
  response.shards_swapped = service_->num_shards();
  return Frame{answer, EncodePublishResponse(response)};
}

Frame RequestDispatcher::HandlePublish(const Frame& request) const {
  auto artifact = ValidateArtifact(request);
  if (!artifact.ok()) return ErrorFrame(artifact.status());
  return Install(std::move(*artifact), FrameType::kPublishResponse);
}

Frame RequestDispatcher::HandleRollback(const Frame& request) const {
  auto decoded = DecodeRollbackRequest(request.payload);
  if (!decoded.ok()) return ErrorFrame(decoded.status());
  if (registry_ == nullptr) {
    return ErrorFrame(
        Status::FailedPrecondition("server has no model registry"));
  }
  // Registry pop + shard swap are one atomic rollout inside the service
  // (same mutex as PublishAll), so a racing publish frame can't leave the
  // shards serving a different model than the registry's current epoch.
  auto epoch = service_->RollbackAll(registry_, decoded->model_name);
  if (!epoch.ok()) return ErrorFrame(epoch.status());
  RollbackResponse response;
  response.registry_epoch = *epoch;
  response.shards_swapped = service_->num_shards();
  return Frame{FrameType::kRollbackResponse,
               EncodeRollbackResponse(response)};
}

Frame RequestDispatcher::HandleHealth(const Frame& request) const {
  auto decoded = DecodeHealthRequest(request.payload);
  if (!decoded.ok()) return ErrorFrame(decoded.status());
  HealthResponse response;
  response.nonce = decoded->nonce;
  if (registry_ != nullptr) {
    auto current = registry_->Current(default_model_name_);
    if (current.ok()) response.registry_epoch = current->epoch;
  }
  {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    if (staged_.has_value()) response.staged_ticket = staged_->ticket;
  }
  response.queue_depth = service_->stats().queue_depth;
  return Frame{FrameType::kHealthResponse, EncodeHealthResponse(response)};
}

Frame RequestDispatcher::HandleStage(const Frame& request) {
  // Same validation as a direct publish — the checksum gate runs here, so
  // a corrupted artifact is refused at stage time, while the fleet can
  // still abort cheaply, not at commit time when peers already committed.
  auto staged = ValidateArtifact(request);
  if (!staged.ok()) return ErrorFrame(staged.status());
  StageResponse response;
  {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    staged->ticket = next_ticket_++;
    response.ticket = staged->ticket;
    response.artifact_hash = staged->artifact_hash;
    staged_ = std::move(*staged);
  }
  return Frame{FrameType::kStageResponse, EncodeStageResponse(response)};
}

Frame RequestDispatcher::HandleCommit(const Frame& request) {
  auto decoded = DecodeTicketRequest(request.payload);
  if (!decoded.ok()) return ErrorFrame(decoded.status());
  StagedArtifact staged;
  {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    if (!staged_.has_value()) {
      return ErrorFrame(Status::FailedPrecondition(
          "commit without a staged artifact (stage phase never reached "
          "this node, or an abort already discarded it)"));
    }
    if (staged_->ticket != decoded->ticket) {
      // Leave the mismatched artifact parked: the rollout that staged it
      // may still commit or abort it by its own ticket.
      return ErrorFrame(Status::FailedPrecondition(
          StrFormat("commit ticket %llu does not match staged ticket %llu",
                    static_cast<unsigned long long>(decoded->ticket),
                    static_cast<unsigned long long>(staged_->ticket))));
    }
    staged = std::move(*staged_);
    staged_.reset();
  }
  return Install(std::move(staged), FrameType::kCommitResponse);
}

Frame RequestDispatcher::HandleAbort(const Frame& request) {
  auto decoded = DecodeTicketRequest(request.payload);
  if (!decoded.ok()) return ErrorFrame(decoded.status());
  AbortResponse response;
  {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    if (staged_.has_value() &&
        (decoded->ticket == 0 || staged_->ticket == decoded->ticket)) {
      staged_.reset();
      response.had_staged = 1;
    }
  }
  return Frame{FrameType::kAbortResponse, EncodeAbortResponse(response)};
}

Frame RequestDispatcher::HandleStats(const WireServerCounters& server) const {
  StatsResponse response;
  response.service = service_->stats();
  response.server = server;
  return Frame{FrameType::kStatsResponse, EncodeStatsResponse(response)};
}

Frame RequestDispatcher::UnexpectedFrame(FrameType type) {
  return ErrorFrame(Status::InvalidArgument(
      StrFormat("unexpected frame type %u (%s)", static_cast<unsigned>(type),
                FrameTypeName(type))));
}

}  // namespace wmp::net
