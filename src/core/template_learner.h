#ifndef WMP_CORE_TEMPLATE_LEARNER_H_
#define WMP_CORE_TEMPLATE_LEARNER_H_

/// \file template_learner.h
/// Phase 1 of LearnedWMP: learning query templates (paper §III-B1,
/// Algorithm 1) — plus the four alternative template-learning methods the
/// paper ablates in Fig. 9 and the DBSCAN variant from §V.

#include <atomic>
#include <memory>
#include <vector>

#include "core/featurizer.h"
#include "ml/centroid_index.h"
#include "ml/dbscan.h"
#include "ml/kmeans.h"
#include "ml/scaler.h"
#include "text/bow.h"
#include "text/embeddings.h"
#include "text/rules.h"
#include "text/text_mining.h"
#include "util/io.h"
#include "workloads/generator.h"
#include "workloads/query_record.h"

namespace wmp::core {

/// How templates are learned / queries are assigned.
enum class TemplateMethod {
  kPlanKMeans,     ///< paper's method: plan features + k-means (Alg. 1)
  kPlanDbscan,     ///< §V ablation: plan features + DBSCAN
  kRuleBased,      ///< Fig. 9: expert rules, one per family
  kBagOfWords,     ///< Fig. 9: corpus BoW + k-means
  kTextMining,     ///< Fig. 9: schema-aware tokens + k-means
  kWordEmbedding,  ///< Fig. 9: PPMI/SVD embeddings + k-means
};

/// Display name ("query plan (ours)", "rule based", ...), matching Fig. 9's
/// x-axis labels.
const char* TemplateMethodName(TemplateMethod m);

/// All methods in Fig. 9 order (plan first), then the DBSCAN extra.
const std::vector<TemplateMethod>& AllTemplateMethods();

/// Configuration for TemplateModel::Learn.
struct TemplateLearnerOptions {
  TemplateMethod method = TemplateMethod::kPlanKMeans;
  /// Number of templates k (clustering methods only; rule-based derives it
  /// from the rule set).
  int num_templates = 40;
  /// log1p-compress the cardinality slots of plan features before
  /// clustering. Off by default: working memory scales with *absolute*
  /// cardinalities, so clustering on raw (standardized) magnitudes yields
  /// more memory-homogeneous templates; the log variant groups queries by
  /// plan "shape" instead and is kept for ablations.
  bool log_transform_cards = false;
  uint64_t seed = 42;
  ml::KMeansOptions kmeans;          ///< num_clusters overridden
  ml::DbscanOptions dbscan = {.eps = 1.0, .min_points = 10};
  text::BowOptions bow;
  text::EmbeddingOptions embedding;
};

/// \brief A learned set of query templates `T` with an assignment function.
///
/// Thread-compatible after Learn(); Assign is const.
class TemplateModel {
 public:
  TemplateModel() = default;

  /// Learns templates from the training records (GETTEMPLATES in Alg. 1).
  /// `generator` supplies the expert rules (rule-based method) and the
  /// catalog (text-mining vocabulary); it must outlive nothing — rules are
  /// copied.
  static Result<TemplateModel> Learn(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& train_indices,
      const workloads::WorkloadGenerator& generator,
      const TemplateLearnerOptions& options);

  /// Template id of one query (findTemplate in Alg. 2) in
  /// `[0, num_templates())`.
  Result<int> Assign(const workloads::QueryRecord& record) const;

  /// Batch counterpart of Assign — the IN3 hot path over a whole eval set.
  ///
  /// Featurizes the selected records into one contiguous `ml::Matrix`,
  /// standardizes it in place, and assigns every row in a single pass; row
  /// blocks run on the shared worker pool (util/parallel.h). Returns one
  /// template id per entry of `indices`, in order, each agreeing exactly
  /// with what Assign() would return for that record. Thread-safe after
  /// Learn()/Deserialize(): const and lock-free.
  Result<std::vector<int>> AssignBatch(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& indices) const;

  /// Number of learned templates (histogram length k).
  int num_templates() const { return num_templates_; }
  TemplateMethod method() const { return options_.method; }

  /// The featurizer the plan-feature methods assign through (null for the
  /// rule-based and text ablation methods, which featurize differently).
  const Featurizer* featurizer() const { return featurizer_.get(); }

  /// \name Exact pruned assignment (ml/centroid_index.h).
  ///
  /// Plan-feature AssignBatch routes through a CentroidIndex — partial
  /// distances + centroid-centroid bounds — producing ids bitwise equal to
  /// the NearestCentroids reference scan. Turning the toggle off forces
  /// the reference path (the equivalence baseline the tests compare
  /// against, and the pre-PR behaviour for benchmarks).
  /// @{
  void set_pruned_assign(bool on) { pruned_assign_ = on; }
  bool pruned_assign() const { return pruned_assign_; }

  /// Cumulative pruning counters across AssignBatch calls (zeros when the
  /// pruned path never ran). Copies of the model share one counter block.
  ml::CentroidIndex::AssignStats assign_stats() const;
  /// @}

  /// Serialized size in bytes (centroids + scaler); part of the deployed
  /// model footprint.
  size_t SerializedBytes() const;

  /// \name Persistence
  /// Serialization covers the deployable methods — plan-feature k-means /
  /// DBSCAN and rule-based. The text-based methods exist for the Fig. 9
  /// ablation only and return NotImplemented.
  /// @{
  Status Serialize(BinaryWriter* writer) const;
  static Result<TemplateModel> Deserialize(BinaryReader* reader);
  /// @}

 private:
  // Feature vector of a record under the configured method.
  Result<std::vector<double>> Featurize(
      const workloads::QueryRecord& record) const;

  // Featurizes the selected records into one matrix (one row per index).
  // Plan-feature methods fill rows in parallel; the text-based ablation
  // methods fall back to a serial Featurize loop.
  Result<ml::Matrix> FeaturizeBatch(
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<uint32_t>& indices) const;

  // Builds featurizer_ + centroid_index_ once centroids and options are
  // final (end of Learn and Deserialize).
  void BuildAssignPath();

  // Centroid matrix the plan-feature methods assign against.
  const ml::Matrix& AssignCentroids() const {
    return options_.method == TemplateMethod::kPlanDbscan ? dbscan_centroids_
                                                          : kmeans_.centroids();
  }

  /// Relaxed atomic counter block, shared by copies of the model so the
  /// serving layer's snapshot-per-shard copies still aggregate.
  struct AssignCounters {
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> bound_skips{0};
    std::atomic<uint64_t> early_exits{0};
    std::atomic<uint64_t> full_distances{0};
  };

  TemplateLearnerOptions options_;
  int num_templates_ = 0;
  ml::StandardScaler scaler_;
  ml::KMeans kmeans_;
  ml::Matrix dbscan_centroids_;
  text::BowVectorizer bow_;
  text::SchemaAwareVectorizer schema_vectorizer_;
  text::WordEmbeddings embeddings_;
  text::RuleBasedClassifier rules_;
  /// Shared, immutable after BuildAssignPath (copies alias them).
  std::shared_ptr<const Featurizer> featurizer_;
  std::shared_ptr<const ml::CentroidIndex> centroid_index_;
  std::shared_ptr<AssignCounters> assign_counters_;
  bool pruned_assign_ = true;
};

/// \brief The paper's elbow tuning for `k` (§III-B1 cites the elbow
/// method): runs plan-feature k-means over each candidate in `ks` and picks
/// the inertia-curve elbow. Returns the chosen k; when `inertias` is
/// non-null it also receives the curve, one entry per `ks` entry.
Result<int> ChooseNumTemplates(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& train_indices, const std::vector<int>& ks,
    uint64_t seed = 42, std::vector<double>* inertias = nullptr);

}  // namespace wmp::core

#endif  // WMP_CORE_TEMPLATE_LEARNER_H_
