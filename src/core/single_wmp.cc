#include "core/single_wmp.h"

#include "core/featurizer.h"
#include "ml/compiled_tree.h"
#include "ml/mlp.h"
#include "util/timer.h"

namespace wmp::core {

namespace {

// Per-query regression maps raw plan features of single queries and is
// trained on ~10x more examples than the distribution regressor, so the
// paper's randomized search lands on a higher-capacity net for it.
std::unique_ptr<ml::Regressor> MakeSingleRegressor(ml::RegressorKind kind,
                                                   uint64_t seed) {
  if (kind == ml::RegressorKind::kMlp) {
    ml::MlpOptions opt;
    opt.hidden_layers = {128, 64, 48, 32};
    opt.seed = seed;
    return std::make_unique<ml::MlpRegressor>(opt);
  }
  return ml::CreateRegressor(kind, seed);
}

}  // namespace

Result<SingleWmpModel> SingleWmpModel::Train(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& train_indices,
    const SingleWmpOptions& options, ml::BinnedDatasetCache* bin_cache) {
  if (train_indices.empty()) {
    return Status::InvalidArgument("SingleWmpModel::Train with no queries");
  }
  SingleWmpModel model;
  model.options_ = options;
  ml::Matrix x = PlanFeatureMatrix(records, train_indices);
  std::vector<double> y = ActualMemoryVector(records, train_indices);
  WMP_RETURN_IF_ERROR(model.scaler_.Fit(x));
  WMP_ASSIGN_OR_RETURN(ml::Matrix scaled, model.scaler_.Transform(x));

  Stopwatch sw;
  model.regressor_ = MakeSingleRegressor(options.regressor, options.seed);
  WMP_RETURN_IF_ERROR(
      model.regressor_->FitWithSharedBins(scaled, y, bin_cache));
  model.train_ms_ = sw.ElapsedMillis();
  // Best-effort bin-space compile (tree families only; others keep the
  // reference path). Bitwise-identical predictions, so callers never see
  // the difference.
  auto compiled = ml::CompiledEnsemble::CompileRegressor(*model.regressor_);
  if (compiled.ok()) {
    model.compiled_ = std::make_shared<const ml::CompiledEnsemble>(
        std::move(compiled).value());
  }
  return model;
}

Result<double> SingleWmpModel::PredictQuery(
    const workloads::QueryRecord& record) const {
  if (regressor_ == nullptr) {
    return Status::FailedPrecondition("SingleWmpModel not trained");
  }
  std::vector<double> row = record.plan_features;
  WMP_RETURN_IF_ERROR(scaler_.TransformRow(&row));
  if (compiled_ != nullptr) {
    return compiled_->PredictOne(row);
  }
  return regressor_->PredictOne(row);
}

Result<double> SingleWmpModel::PredictWorkload(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& batch) const {
  double total = 0.0;
  for (uint32_t i : batch) {
    WMP_ASSIGN_OR_RETURN(double m, PredictQuery(records[i]));
    total += m;
  }
  return total;
}

Result<std::vector<double>> SingleWmpModel::PredictWorkloads(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<WorkloadBatch>& batches) const {
  std::vector<double> out(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    WMP_ASSIGN_OR_RETURN(out[b],
                         PredictWorkload(records, batches[b].query_indices));
  }
  return out;
}

Result<size_t> SingleWmpModel::RegressorBytes() const {
  if (regressor_ == nullptr) {
    return Status::FailedPrecondition("SingleWmpModel not trained");
  }
  return regressor_->SerializedSize();
}

double DbmsWorkloadEstimate(const std::vector<workloads::QueryRecord>& records,
                            const std::vector<uint32_t>& batch) {
  double total = 0.0;
  for (uint32_t i : batch) total += records[i].dbms_estimate_mb;
  return total;
}

std::vector<double> DbmsWorkloadEstimates(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<WorkloadBatch>& batches) {
  std::vector<double> out(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    out[b] = DbmsWorkloadEstimate(records, batches[b].query_indices);
  }
  return out;
}

}  // namespace wmp::core
