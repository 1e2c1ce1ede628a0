#include "core/learned_wmp.h"

#include <algorithm>

#include "core/histogram.h"
#include "ml/compiled_tree.h"
#include "ml/dtree.h"
#include "util/parallel.h"
#include "ml/gbt.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/ridge.h"
#include "util/strings.h"
#include "util/timer.h"

namespace wmp::core {

namespace {

// Builds the regressor for a LearnedWMP model with hyperparameters tuned
// for distribution regression: the model sees |Q_train| / s workloads —
// an order of magnitude fewer examples than SingleWMP — so tree learners
// get shallower, more regularized settings, and the DNN uses the paper's
// tuned architecture (48-39-27-16-7-5, §III-B3), which the paper's
// randomized search selected for this model.
std::unique_ptr<ml::Regressor> MakeLearnedRegressor(ml::RegressorKind kind,
                                                    uint64_t seed) {
  switch (kind) {
    case ml::RegressorKind::kMlp: {
      ml::MlpOptions opt;  // defaults are the paper's architecture
      opt.seed = seed;
      return std::make_unique<ml::MlpRegressor>(opt);
    }
    case ml::RegressorKind::kGbt: {
      ml::GbtOptions opt;
      opt.num_rounds = 150;
      opt.learning_rate = 0.06;
      opt.max_depth = 4;
      opt.min_child_weight = 3;
      opt.colsample = 0.8;
      opt.subsample = 0.9;
      opt.seed = seed;
      return std::make_unique<ml::GbtRegressor>(opt);
    }
    case ml::RegressorKind::kDecisionTree: {
      ml::DecisionTreeOptions opt;
      opt.tree.max_depth = 8;
      opt.tree.min_samples_leaf = 4;
      opt.seed = seed;
      return std::make_unique<ml::DecisionTreeRegressor>(opt);
    }
    case ml::RegressorKind::kRandomForest: {
      ml::RandomForestOptions opt;
      opt.num_trees = 40;
      opt.tree.max_depth = 10;
      opt.tree.min_samples_leaf = 3;
      opt.seed = seed;
      return std::make_unique<ml::RandomForestRegressor>(opt);
    }
    default:
      return ml::CreateRegressor(kind, seed);
  }
}

// Stand-in generator for the generator-free Train overload; the plan-based
// template methods never consult it.
class NullWorkloadGenerator : public workloads::WorkloadGenerator {
 public:
  const std::string& name() const override {
    static const std::string kName = "ingested-log";
    return kName;
  }
  const catalog::Catalog& catalog() const override { return catalog_; }
  int num_families() const override { return 0; }
  Result<sql::Query> GenerateQuery(int, Rng*) const override {
    return Status::FailedPrecondition("ingested logs cannot generate queries");
  }
  std::vector<text::TemplateRule> ExpertRules() const override { return {}; }

 private:
  catalog::Catalog catalog_;
};

}  // namespace

Result<LearnedWmpModel> LearnedWmpModel::Train(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& train_indices,
    const LearnedWmpOptions& options, ml::BinnedDatasetCache* bin_cache) {
  switch (options.templates.method) {
    case TemplateMethod::kPlanKMeans:
    case TemplateMethod::kPlanDbscan:
      break;
    default:
      return Status::InvalidArgument(
          "generator-free training supports plan-feature templates only");
  }
  static const NullWorkloadGenerator kNullGenerator;
  return Train(records, train_indices, kNullGenerator, options, bin_cache);
}

Result<LearnedWmpModel> LearnedWmpModel::Train(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& train_indices,
    const workloads::WorkloadGenerator& generator,
    const LearnedWmpOptions& options, ml::BinnedDatasetCache* bin_cache) {
  if (train_indices.size() < static_cast<size_t>(options.batch_size)) {
    return Status::InvalidArgument(
        "need at least one full workload of training queries");
  }
  LearnedWmpModel model;
  model.options_ = options;

  // Phase 1 (TR1-TR3): learn query templates.
  Stopwatch sw;
  TemplateLearnerOptions topt = options.templates;
  topt.seed = options.seed;
  WMP_ASSIGN_OR_RETURN(
      model.templates_,
      TemplateModel::Learn(records, train_indices, generator, topt));
  model.train_stats_.template_ms = sw.ElapsedMillis();

  // Phase 2 (TR4-TR5): batch into workloads and build histograms.
  sw.Reset();
  WorkloadSetOptions wopt;
  wopt.batch_size = options.batch_size;
  wopt.label = options.label;
  wopt.seed = options.seed;
  const std::vector<WorkloadBatch> batches =
      BuildWorkloads(records, train_indices, wopt);
  if (batches.empty()) {
    return Status::InvalidArgument("no complete training workload");
  }
  if (options.variable_length && options.label != WorkloadLabel::kSum) {
    return Status::InvalidArgument(
        "variable-length workloads require the sum label");
  }
  WMP_ASSIGN_OR_RETURN(ml::Matrix h, model.BinWorkloads(records, batches));
  std::vector<double> y(batches.size());
  const double s = static_cast<double>(options.batch_size);
  if (options.variable_length) {
    for (double& c : h.data()) c /= s;  // distribution over templates
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    y[b] = options.variable_length ? batches[b].label_mb / s
                                   : batches[b].label_mb;
  }
  model.train_stats_.histogram_ms = sw.ElapsedMillis();
  model.train_stats_.num_workloads = batches.size();

  // Phase 3 (TR6): fit the distribution regressor.
  sw.Reset();
  model.regressor_ = MakeLearnedRegressor(options.regressor, options.seed);
  WMP_RETURN_IF_ERROR(model.regressor_->FitWithSharedBins(h, y, bin_cache));
  model.train_stats_.regressor_ms = sw.ElapsedMillis();
  model.train_stats_.regressor_timing = model.regressor_->fit_timing();
  model.CompileInference();
  return model;
}

void LearnedWmpModel::CompileInference() {
  compiled_.reset();
  if (regressor_ == nullptr) return;
  // Best-effort: tree families compile, everything else keeps serving
  // through the reference Predict path.
  auto compiled = ml::CompiledEnsemble::CompileRegressor(*regressor_);
  if (compiled.ok()) {
    compiled_ = std::make_shared<const ml::CompiledEnsemble>(
        std::move(compiled).value());
  }
}

Result<std::vector<double>> LearnedWmpModel::BinWorkload(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& batch) const {
  std::vector<int> ids(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    WMP_ASSIGN_OR_RETURN(ids[i], templates_.Assign(records[batch[i]]));
  }
  return BuildHistogram(ids, templates_.num_templates());
}

Result<double> LearnedWmpModel::PredictWorkload(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& batch) const {
  WMP_ASSIGN_OR_RETURN(std::vector<double> hist, BinWorkload(records, batch));
  return PredictFromHistogram(hist);
}

Result<ml::Matrix> LearnedWmpModel::BinWorkloads(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<WorkloadBatch>& batches,
    TemplateIdResolver* resolver) const {
  // Flatten every workload's member queries into one index vector so the
  // whole eval set is featurized and template-assigned in a single batched
  // pass, then scatter the assignments back into per-workload histograms.
  std::vector<size_t> offsets(batches.size() + 1, 0);
  for (size_t b = 0; b < batches.size(); ++b) {
    offsets[b + 1] = offsets[b] + batches[b].query_indices.size();
  }
  std::vector<uint32_t> flat;
  flat.reserve(offsets.back());
  for (const WorkloadBatch& b : batches) {
    flat.insert(flat.end(), b.query_indices.begin(), b.query_indices.end());
  }
  WMP_ASSIGN_OR_RETURN(std::vector<int> ids,
                       AssignTemplateIds(records, flat, resolver));
  return BuildHistogramMatrix(ids, offsets, templates_.num_templates());
}

Status LearnedWmpModel::BinWorkloadsInto(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<WorkloadBatch>& batches,
    const std::vector<size_t>& rows, ml::Matrix* out,
    TemplateIdResolver* resolver) const {
  if (rows.empty()) return Status::OK();
  std::vector<size_t> offsets(rows.size() + 1, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= batches.size()) {
      return Status::OutOfRange("row index outside the batch set");
    }
    offsets[i + 1] = offsets[i] + batches[rows[i]].query_indices.size();
  }
  std::vector<uint32_t> flat;
  flat.reserve(offsets.back());
  for (size_t r : rows) {
    const auto& q = batches[r].query_indices;
    flat.insert(flat.end(), q.begin(), q.end());
  }
  WMP_ASSIGN_OR_RETURN(std::vector<int> ids,
                       AssignTemplateIds(records, flat, resolver));
  return BuildHistogramRows(ids, offsets, templates_.num_templates(), rows,
                            out);
}

Result<std::vector<int>> LearnedWmpModel::AssignTemplateIds(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& indices,
    TemplateIdResolver* resolver) const {
  if (resolver == nullptr || indices.empty()) {
    return templates_.AssignBatch(records, indices);
  }
  const size_t n = indices.size();
  // Resolve: per-query content fingerprints (memoized at ingest; records
  // from other sources hash here), then one batched memo probe.
  std::vector<uint64_t> keys(n);
  util::ParallelFor(n, kQueriesPerChunk, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      keys[i] = QueryFingerprint(records[indices[i]]);
    }
  });
  std::vector<int> ids(n);
  std::vector<uint8_t> hit(n, 0);
  const size_t hits = resolver->Resolve(keys.data(), n, ids.data(), hit.data());
  if (hits == n) return ids;
  // Featurize misses: only the unknown subset pays featurize + scale +
  // assign. Duplicate misses within one flush are assigned redundantly
  // rather than deduplicated — the memo absorbs them from the next call on,
  // and dedup bookkeeping would cost more than the rare double assign.
  std::vector<uint32_t> miss;
  std::vector<size_t> miss_pos;
  miss.reserve(n - hits);
  miss_pos.reserve(n - hits);
  for (size_t i = 0; i < n; ++i) {
    if (!hit[i]) {
      miss.push_back(indices[i]);
      miss_pos.push_back(i);
    }
  }
  WMP_ASSIGN_OR_RETURN(std::vector<int> miss_ids,
                       templates_.AssignBatch(records, miss));
  // Backfill the gaps and teach the memo the fresh assignments.
  std::vector<uint64_t> miss_keys(miss.size());
  for (size_t j = 0; j < miss.size(); ++j) {
    ids[miss_pos[j]] = miss_ids[j];
    miss_keys[j] = keys[miss_pos[j]];
  }
  resolver->Learn(miss_keys.data(), miss_ids.data(), miss_ids.size());
  return ids;
}

Result<std::vector<double>> LearnedWmpModel::PredictWorkloads(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<WorkloadBatch>& batches) const {
  if (regressor_ == nullptr) {
    return Status::FailedPrecondition("LearnedWmpModel not trained");
  }
  if (batches.empty()) return std::vector<double>{};
  WMP_ASSIGN_OR_RETURN(ml::Matrix h, BinWorkloads(records, batches));
  return PredictFromHistogramMatrix(std::move(h));
}

Result<std::vector<double>> LearnedWmpModel::PredictFromHistogramMatrix(
    ml::Matrix h) const {
  if (regressor_ == nullptr) {
    return Status::FailedPrecondition("LearnedWmpModel not trained");
  }
  if (h.cols() != static_cast<size_t>(templates_.num_templates())) {
    return Status::InvalidArgument("histogram width != num templates");
  }
  if (h.rows() == 0) return std::vector<double>{};
  // Bin-space fast path: the compiled ensemble reproduces the regressor's
  // predictions bit for bit, so routing is invisible to callers.
  const bool compiled = compiled_ != nullptr;
  if (!options_.variable_length) {
    return compiled ? compiled_->Predict(h) : regressor_->Predict(h);
  }
  // Variable-length mode: normalize each histogram row to a distribution,
  // predict per-query demand for all rows at once, rescale by each
  // workload's size — the batched mirror of PredictFromHistogram.
  std::vector<double> mass(h.rows());
  for (size_t b = 0; b < h.rows(); ++b) {
    const double* row = h.RowPtr(b);
    double m = 0.0;
    for (size_t c = 0; c < h.cols(); ++c) m += row[c];
    if (m <= 0.0) {
      return Status::InvalidArgument("empty workload histogram");
    }
    mass[b] = m;
    double* mut = h.RowPtr(b);
    for (size_t c = 0; c < h.cols(); ++c) mut[c] /= m;
  }
  WMP_ASSIGN_OR_RETURN(
      std::vector<double> per_query,
      compiled ? compiled_->Predict(h) : regressor_->Predict(h));
  for (size_t b = 0; b < per_query.size(); ++b) per_query[b] *= mass[b];
  return per_query;
}

Result<double> LearnedWmpModel::PredictFromHistogram(
    const std::vector<double>& histogram) const {
  if (regressor_ == nullptr) {
    return Status::FailedPrecondition("LearnedWmpModel not trained");
  }
  if (histogram.size() != static_cast<size_t>(templates_.num_templates())) {
    return Status::InvalidArgument("histogram length != num templates");
  }
  const bool compiled = compiled_ != nullptr;
  if (!options_.variable_length) {
    return compiled ? compiled_->PredictOne(histogram)
                    : regressor_->PredictOne(histogram);
  }
  // Variable-length mode: normalize to a distribution, predict per-query
  // demand, rescale by the workload's actual size.
  const double mass = HistogramMass(histogram);
  if (mass <= 0.0) {
    return Status::InvalidArgument("empty workload histogram");
  }
  std::vector<double> normalized = histogram;
  for (double& c : normalized) c /= mass;
  WMP_ASSIGN_OR_RETURN(double per_query,
                       compiled ? compiled_->PredictOne(normalized)
                                : regressor_->PredictOne(normalized));
  return per_query * mass;
}

Result<size_t> LearnedWmpModel::SerializedSize() const {
  WMP_ASSIGN_OR_RETURN(size_t reg, RegressorBytes());
  return reg + templates_.SerializedBytes();
}

Result<size_t> LearnedWmpModel::RegressorBytes() const {
  if (regressor_ == nullptr) {
    return Status::FailedPrecondition("LearnedWmpModel not trained");
  }
  return regressor_->SerializedSize();
}

namespace {
constexpr uint32_t kLearnedWmpTag = 0x574D504C;  // "WMPL"
constexpr uint32_t kLearnedWmpVersion = 1;

// A model bins each workload into a k-wide histogram, so its regressor
// must read exactly k features: Ridge and MLP take k inputs, and no tree
// may split on a feature >= k (the compiled path would refuse every row,
// the reference one would stop at that node and serve its interior value).
Status CheckHistogramWidth(const ml::Regressor& regressor, size_t k) {
  size_t reads = k;
  std::vector<const ml::RegressionTree*> trees;
  if (const auto* ridge = dynamic_cast<const ml::RidgeRegressor*>(&regressor)) {
    reads = ridge->coefficients().size();
  } else if (const auto* mlp =
                 dynamic_cast<const ml::MlpRegressor*>(&regressor)) {
    reads = mlp->input_width();
  } else if (const auto* dt =
                 dynamic_cast<const ml::DecisionTreeRegressor*>(&regressor)) {
    trees.push_back(&dt->tree());
  } else if (const auto* rf =
                 dynamic_cast<const ml::RandomForestRegressor*>(&regressor)) {
    for (const ml::RegressionTree& tree : rf->trees()) trees.push_back(&tree);
  } else if (const auto* gbt =
                 dynamic_cast<const ml::GbtRegressor*>(&regressor)) {
    for (const ml::RegressionTree& tree : gbt->trees()) trees.push_back(&tree);
  }
  for (const ml::RegressionTree* tree : trees) {
    for (const ml::TreeNode& node : tree->nodes()) {
      reads = std::max(reads, static_cast<size_t>(node.feature + 1));
    }
  }
  if (reads != k) {
    return Status::InvalidArgument(
        StrFormat("%s regressor reads %zu histogram features but the model "
                  "bins %zu templates",
                  regressor.Name().c_str(), reads, k));
  }
  return Status::OK();
}
}  // namespace

Status LearnedWmpModel::Serialize(BinaryWriter* writer) const {
  if (regressor_ == nullptr) {
    return Status::FailedPrecondition("LearnedWmpModel not trained");
  }
  writer->WriteU32(kLearnedWmpTag);
  writer->WriteU32(kLearnedWmpVersion);
  writer->WriteI64(options_.batch_size);
  writer->WriteU8(static_cast<uint8_t>(options_.label));
  writer->WriteU8(options_.variable_length ? 1 : 0);
  WMP_RETURN_IF_ERROR(templates_.Serialize(writer));
  return regressor_->Serialize(writer);
}

Result<LearnedWmpModel> LearnedWmpModel::Deserialize(BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != kLearnedWmpTag) {
    return Status::InvalidArgument("bad LearnedWMP model magic tag");
  }
  WMP_ASSIGN_OR_RETURN(uint32_t version, reader->ReadU32());
  if (version != kLearnedWmpVersion) {
    return Status::InvalidArgument("unsupported LearnedWMP model version");
  }
  LearnedWmpModel model;
  WMP_ASSIGN_OR_RETURN(int64_t batch, reader->ReadI64());
  model.options_.batch_size = static_cast<int>(batch);
  WMP_ASSIGN_OR_RETURN(uint8_t label, reader->ReadU8());
  model.options_.label = static_cast<WorkloadLabel>(label);
  WMP_ASSIGN_OR_RETURN(uint8_t var_len, reader->ReadU8());
  model.options_.variable_length = var_len != 0;
  WMP_ASSIGN_OR_RETURN(model.templates_, TemplateModel::Deserialize(reader));
  model.options_.templates.method = model.templates_.method();
  model.options_.templates.num_templates = model.templates_.num_templates();
  WMP_ASSIGN_OR_RETURN(model.regressor_, ml::DeserializeRegressor(reader));
  WMP_RETURN_IF_ERROR(CheckHistogramWidth(
      *model.regressor_,
      static_cast<size_t>(model.templates_.num_templates())));
  model.CompileInference();
  return model;
}

Status LearnedWmpModel::SaveToFile(const std::string& path) const {
  BinaryWriter writer;
  WMP_RETURN_IF_ERROR(Serialize(&writer));
  return writer.WriteToFile(path);
}

Result<LearnedWmpModel> LearnedWmpModel::LoadFromFile(const std::string& path) {
  WMP_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::FromFile(path));
  return Deserialize(&reader);
}

}  // namespace wmp::core
