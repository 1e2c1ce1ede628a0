#ifndef WMP_CORE_SINGLE_WMP_H_
#define WMP_CORE_SINGLE_WMP_H_

/// \file single_wmp.h
/// The SingleWMP baselines (paper §IV "Baselines"): per-query memory
/// regressors whose workload estimate is the sum of member-query estimates
/// (eq. 11), plus the non-ML SingleWMP-DBMS baseline that sums the
/// optimizer's heuristic estimates.

#include <memory>
#include <vector>

#include "core/workload.h"
#include "ml/regressor.h"
#include "ml/scaler.h"
#include "workloads/query_record.h"

namespace wmp::ml {
class CompiledEnsemble;
}  // namespace wmp::ml

namespace wmp::core {

/// Configuration of a SingleWMP model.
struct SingleWmpOptions {
  ml::RegressorKind regressor = ml::RegressorKind::kGbt;
  uint64_t seed = 42;
};

/// \brief Per-query learned memory estimator, summed per workload.
class SingleWmpModel {
 public:
  SingleWmpModel() = default;

  /// Fits the per-query regressor on (plan features, actual memory) pairs.
  /// With a `bin_cache`, tree-family regressors reuse its binned design —
  /// the experiment harness trains DT/RF/GBT on the identical scaled matrix,
  /// so the cache bins it once instead of once per family.
  static Result<SingleWmpModel> Train(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& train_indices,
      const SingleWmpOptions& options,
      ml::BinnedDatasetCache* bin_cache = nullptr);

  /// Memory estimate (MB) of one query.
  Result<double> PredictQuery(const workloads::QueryRecord& record) const;

  /// Workload estimate: sum of member-query estimates (eq. 11).
  Result<double> PredictWorkload(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& batch) const;

  /// Predicts many workloads.
  Result<std::vector<double>> PredictWorkloads(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<WorkloadBatch>& batches) const;

  const ml::Regressor& regressor() const { return *regressor_; }

  /// Bin-space compiled form of the regressor (ml/compiled_tree.h); null
  /// for non-tree families. PredictQuery routes through it whenever it is
  /// present — bitwise the `regressor()` prediction.
  const ml::CompiledEnsemble* compiled() const { return compiled_.get(); }

  /// Regressor fit time of the last Train call (ms).
  double train_ms() const { return train_ms_; }
  /// Phase breakdown of the regressor fit (tree families only).
  ml::FitTiming fit_timing() const {
    return regressor_ ? regressor_->fit_timing() : ml::FitTiming{};
  }
  /// Serialized regressor size in bytes (Fig. 8).
  Result<size_t> RegressorBytes() const;

 private:
  SingleWmpOptions options_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::Regressor> regressor_;
  std::shared_ptr<const ml::CompiledEnsemble> compiled_;
  double train_ms_ = 0.0;
};

/// \brief SingleWMP-DBMS: the state of practice. Sums the optimizer's
/// heuristic per-query estimates over the workload; no ML, no training.
double DbmsWorkloadEstimate(const std::vector<workloads::QueryRecord>& records,
                            const std::vector<uint32_t>& batch);

/// DBMS estimates for many workloads.
std::vector<double> DbmsWorkloadEstimates(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<WorkloadBatch>& batches);

}  // namespace wmp::core

#endif  // WMP_CORE_SINGLE_WMP_H_
