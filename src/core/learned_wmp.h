#ifndef WMP_CORE_LEARNED_WMP_H_
#define WMP_CORE_LEARNED_WMP_H_

/// \file learned_wmp.h
/// The LearnedWMP model (paper §III): query templates + workload histograms
/// + a distribution regressor, trained end-to-end from a query log and
/// predicting the working-memory demand of unseen workloads.
///
/// Training implements TR1-TR6; PredictWorkload implements IN1-IN5
/// (Algorithm 3).

#include <memory>
#include <vector>

#include "core/template_learner.h"
#include "core/template_resolver.h"
#include "core/workload.h"
#include "ml/regressor.h"

namespace wmp::ml {
class CompiledEnsemble;
}  // namespace wmp::ml

namespace wmp::core {

/// Configuration of a LearnedWMP model.
struct LearnedWmpOptions {
  TemplateLearnerOptions templates;
  int batch_size = 10;  ///< workload size `s`
  WorkloadLabel label = WorkloadLabel::kSum;
  ml::RegressorKind regressor = ml::RegressorKind::kGbt;
  /// Variable-length workload support (the paper's §I extension): the
  /// regressor is trained on *normalized* histograms (a distribution over
  /// templates) with per-query targets, and predictions rescale by the
  /// workload's size — so inference batches need not match the training
  /// `batch_size`. Only meaningful with the kSum label.
  bool variable_length = false;
  uint64_t seed = 42;
};

/// \brief Timing breakdown of LearnedWmpModel::Train.
struct LearnedWmpTrainStats {
  double template_ms = 0.0;   ///< phase 1 (TR3)
  double histogram_ms = 0.0;  ///< phase 2 (TR4-TR5)
  double regressor_ms = 0.0;  ///< phase 3 (TR6) — Fig. 6's "training time"
  /// Phase 3 internals for tree families: design binning / tree growth /
  /// per-round updates (zeros elsewhere). Attributes training regressions
  /// from the CLI (wmpctl train) and the training benchmark.
  ml::FitTiming regressor_timing;
  size_t num_workloads = 0;
};

/// \brief Trained workload-memory predictor.
class LearnedWmpModel {
 public:
  LearnedWmpModel() = default;

  /// Trains on the selected records (the Q_train partition). With a
  /// `bin_cache`, tree-family regressors reuse its binned design matrix —
  /// the experiment harness trains DT/RF/GBT candidates on the identical
  /// histogram matrix, so the cache bins it once instead of once per family.
  static Result<LearnedWmpModel> Train(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& train_indices,
      const workloads::WorkloadGenerator& generator,
      const LearnedWmpOptions& options,
      ml::BinnedDatasetCache* bin_cache = nullptr);

  /// Generator-free overload for training from an ingested query log
  /// (tools/wmpctl): valid for the plan-feature template methods only —
  /// rule-based needs expert rules and text-mining needs the catalog,
  /// both of which come from a generator.
  static Result<LearnedWmpModel> Train(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& train_indices,
      const LearnedWmpOptions& options,
      ml::BinnedDatasetCache* bin_cache = nullptr);

  /// Predicts the collective memory demand (MB) of one workload:
  /// IN1-IN4 build the histogram, IN5 applies the regressor.
  Result<double> PredictWorkload(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& batch) const;

  /// Predicts many workloads in one batched pass — the production-serving
  /// hot path. The whole eval set is featurized, template-assigned
  /// (TemplateModel::AssignBatch), histogrammed (BuildHistogramMatrix), and
  /// regressed (Regressor::Predict) as contiguous matrices; row blocks run
  /// on the shared worker pool. Results agree with a PredictWorkload loop
  /// to within 1e-9 per workload (asserted in tests).
  Result<std::vector<double>> PredictWorkloads(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<WorkloadBatch>& batches) const;

  /// Predicts directly from a precomputed histogram (length k).
  Result<double> PredictFromHistogram(const std::vector<double>& histogram) const;

  /// Batched IN5: predicts every row of a precomputed count-histogram
  /// matrix (one workload per row, k columns). This is PredictWorkloads
  /// with the histogram-building front half factored out, so a serving
  /// layer that sources histograms from a cache reaches the regressor
  /// through the exact same arithmetic — cached rows score
  /// bitwise-identically to freshly-binned ones. Takes the matrix by value
  /// because variable-length mode normalizes rows in place.
  Result<std::vector<double>> PredictFromHistogramMatrix(ml::Matrix h) const;

  /// Builds the histogram of a workload (IN1-IN4; BinWorkload in Alg. 2).
  Result<std::vector<double>> BinWorkload(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& batch) const;

  /// Batched IN1-IN4: builds every workload's histogram in one pass and
  /// returns them as a `batches.size() x num_templates` matrix (one row per
  /// workload, in order). Both training (TR4-TR5) and PredictWorkloads are
  /// built on top of this. With a `resolver`, member queries whose
  /// fingerprints it knows contribute their memoized template ids and only
  /// the rest are featurized/assigned (see AssignTemplateIds).
  Result<ml::Matrix> BinWorkloads(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<WorkloadBatch>& batches,
      TemplateIdResolver* resolver = nullptr) const;

  /// Cache-miss variant of BinWorkloads: bins only the workloads
  /// `batches[r]` for each `r` in `rows` (distinct, ascending or not),
  /// scattering each histogram into row `r` of `*out` and leaving every
  /// other row untouched. The serving layer's histogram cache fills hit
  /// rows directly and routes just the miss rows through here, skipping
  /// featurize/assign for everything cached — no per-workload copies of
  /// the untouched batches. `*out` must be `batches.size()` rows by
  /// num_templates columns. An optional `resolver` adds the second cache
  /// level: known member queries skip featurize/assign individually.
  Status BinWorkloadsInto(const std::vector<workloads::QueryRecord>& records,
                          const std::vector<WorkloadBatch>& batches,
                          const std::vector<size_t>& rows, ml::Matrix* out,
                          TemplateIdResolver* resolver = nullptr) const;

  /// IN3 with a per-query memo — the resolve-hits / featurize-misses /
  /// backfill pipeline. Queries whose content fingerprints the resolver
  /// knows take their template ids from it; only the miss subset goes
  /// through TemplateModel::AssignBatch (featurize + scale + assign), and
  /// the freshly computed (fingerprint, id) pairs are taught back. With a
  /// null resolver this is exactly AssignBatch. Returns one id per entry
  /// of `indices`, in order; memoized ids are bitwise the ids AssignBatch
  /// would produce (asserted in tests), so the downstream histogram — and
  /// prediction — is unchanged by the memo.
  Result<std::vector<int>> AssignTemplateIds(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& indices,
      TemplateIdResolver* resolver) const;

  const TemplateModel& templates() const { return templates_; }
  /// Mutable access for serving/bench toggles (set_pruned_assign); not
  /// safe while another thread predicts through this model.
  TemplateModel* mutable_templates() { return &templates_; }
  const ml::Regressor& regressor() const { return *regressor_; }
  const LearnedWmpTrainStats& train_stats() const { return train_stats_; }
  const LearnedWmpOptions& options() const { return options_; }

  /// \name Bin-space compiled inference (ml/compiled_tree.h).
  ///
  /// Tree-family regressors are flattened into a compiled ensemble at
  /// train/load time, and IN5 (PredictFromHistogram / the batched matrix
  /// form) always scores through it — bitwise-identical predictions,
  /// several times faster per row. Non-tree regressors (Ridge, MLP) leave
  /// `compiled()` null and predict through `regressor()`. Equivalence
  /// checks compare against `regressor()` over the same histograms.
  /// @{
  /// Compiled form of the regressor, or null when the family has none.
  const ml::CompiledEnsemble* compiled() const { return compiled_.get(); }
  /// @}

  /// Deployed model footprint: regressor + template model bytes.
  Result<size_t> SerializedSize() const;
  /// Regressor-only bytes (the quantity Fig. 8 compares across model
  /// families).
  Result<size_t> RegressorBytes() const;

  /// \name Persistence — the paper's deployment story ("pre-train ... and
  /// ship the model into the DBMS product"). Round-trips templates,
  /// regressor, and options. Restricted to serializable template methods
  /// (see TemplateModel::Serialize).
  /// @{
  Status Serialize(BinaryWriter* writer) const;
  static Result<LearnedWmpModel> Deserialize(BinaryReader* reader);
  Status SaveToFile(const std::string& path) const;
  static Result<LearnedWmpModel> LoadFromFile(const std::string& path);
  /// @}

 private:
  /// Rebuilds `compiled_` from the current regressor (best-effort: null
  /// for non-tree families). Called after Train and Deserialize.
  void CompileInference();

  LearnedWmpOptions options_;
  TemplateModel templates_;
  std::unique_ptr<ml::Regressor> regressor_;
  /// shared_ptr so model copies made by the serving layer's hot-swap path
  /// share one immutable compiled form.
  std::shared_ptr<const ml::CompiledEnsemble> compiled_;
  LearnedWmpTrainStats train_stats_;
};

}  // namespace wmp::core

#endif  // WMP_CORE_LEARNED_WMP_H_
