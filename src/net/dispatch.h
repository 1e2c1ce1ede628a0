#ifndef WMP_NET_DISPATCH_H_
#define WMP_NET_DISPATCH_H_

/// \file dispatch.h
/// Request execution for net::ReactorServer — the protocol boundary
/// between wire frames and engine::ScoringService / engine::ModelRegistry.
///
/// The reactor owns only transport: sockets, buffers, frame reassembly,
/// and echoing each request's id on its answer. Everything else lives
/// here: decode, validation (including the publish artifact checksum,
/// which DecodePublishRequest enforces), registry/service calls, and
/// response encoding. A response frame depends only on the request frame
/// and the service state, which is what lets every wire test and bench
/// gate served scores bitwise against the in-process engine::BatchScorer.
///
/// Scoring is the one request that is intentionally split: SubmitScore
/// enqueues every workload of a request and hands back the futures, and
/// BuildScoreResponse turns collected outcomes into the response frame.
/// The reactor parks the futures in between and answers as the service
/// fulfills them, without ever blocking the event loop; every other
/// request executes inline and answers at once.

#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/model_registry.h"
#include "engine/scoring_service.h"
#include "net/frame.h"
#include "net/protocol.h"

namespace wmp::net {

/// Builds the kError frame for `status` (code + message as an ErrorBody).
Frame ErrorFrame(const Status& status);

/// \brief Executes decoded requests against a service + registry pair.
///
/// Borrows both; they must outlive the dispatcher. `default_model_name` is
/// the registry name publish frames fall back to when they carry an empty
/// name.
class RequestDispatcher {
 public:
  RequestDispatcher(engine::ScoringService* service,
                    engine::ModelRegistry* registry,
                    std::string default_model_name)
      : service_(service),
        registry_(registry),
        default_model_name_(std::move(default_model_name)) {}

  /// Submits every workload of `request` to the service; futures come back
  /// in workload order. The caller owns `request` and must keep its
  /// `records` alive until every future resolves (Submit's borrow).
  std::vector<std::future<Result<double>>> SubmitScore(
      const ScoreRequest& request) const;

  /// Folds fully-collected outcomes into a kScoreResponse frame.
  static Frame BuildScoreResponse(std::vector<Result<double>> outcomes);

  /// Deserializes the carried artifact (checksum already verified at
  /// decode) and rolls it out across all shards with registry recording.
  Frame HandlePublish(const Frame& request) const;

  /// Re-publishes the previous registry epoch of the named model.
  Frame HandleRollback(const Frame& request) const;

  /// Service counters + the server's own counters.
  Frame HandleStats(const WireServerCounters& server) const;

  /// \name Fleet control plane (kHealth / kStage / kCommit / kAbort).
  ///
  /// The two-phase publish parks exactly ONE validated artifact per
  /// server (a newer stage replaces an older one — the router serializes
  /// rollouts, so a lingering staged artifact is a failed rollout's
  /// leftover, not a concurrent one). Commit must name the ticket stage
  /// returned; a mismatch fails without touching the parked artifact so
  /// the router's abort can still clean up.
  /// @{
  /// Liveness/epoch probe: echoes the nonce, reports the default model's
  /// current registry epoch, any staged ticket, and the queue depth.
  Frame HandleHealth(const Frame& request) const;
  /// Validates (checksum via DecodePublishRequest, then deserialize) and
  /// parks the artifact without installing it. Answers kStageResponse.
  Frame HandleStage(const Frame& request);
  /// Installs the parked artifact via PublishAll. Answers kCommitResponse
  /// (a PublishResponse payload).
  Frame HandleCommit(const Frame& request);
  /// Discards the parked artifact (ticket 0 = whatever is staged).
  /// Idempotent: aborting with nothing staged succeeds, had_staged = 0.
  Frame HandleAbort(const Frame& request);
  /// @}

  /// The response for a frame type the server does not understand.
  static Frame UnexpectedFrame(FrameType type);

  engine::ScoringService* service() const { return service_; }

 private:
  /// A validated artifact: what a publish installs and a stage parks
  /// (under a ticket) for commit.
  struct StagedArtifact {
    uint64_t ticket = 0;
    uint64_t artifact_hash = 0;
    std::string model_name;
    std::shared_ptr<const core::LearnedWmpModel> model;
  };

  /// Decodes a publish/stage payload (the checksum gate), deserializes
  /// its artifact and resolves an empty name to the default one.
  Result<StagedArtifact> ValidateArtifact(const Frame& request) const;
  /// Installs `artifact` on every shard and records it in the registry;
  /// answers a PublishResponse payload under `answer`.
  Frame Install(StagedArtifact artifact, FrameType answer) const;

  engine::ScoringService* service_;
  engine::ModelRegistry* registry_;
  std::string default_model_name_;
  mutable std::mutex stage_mutex_;
  std::optional<StagedArtifact> staged_;
  uint64_t next_ticket_ = 1;
};

}  // namespace wmp::net

#endif  // WMP_NET_DISPATCH_H_
