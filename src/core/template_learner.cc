#include "core/template_learner.h"

#include <atomic>
#include <cmath>
#include <limits>

#include "core/featurizer.h"
#include "util/parallel.h"

namespace wmp::core {

const char* TemplateMethodName(TemplateMethod m) {
  switch (m) {
    case TemplateMethod::kPlanKMeans:
      return "query plan (ours)";
    case TemplateMethod::kPlanDbscan:
      return "query plan + DBSCAN";
    case TemplateMethod::kRuleBased:
      return "rule based";
    case TemplateMethod::kBagOfWords:
      return "bag of words";
    case TemplateMethod::kTextMining:
      return "text mining";
    case TemplateMethod::kWordEmbedding:
      return "word embeddings";
  }
  return "?";
}

const std::vector<TemplateMethod>& AllTemplateMethods() {
  static const std::vector<TemplateMethod> kAll = {
      TemplateMethod::kPlanKMeans,    TemplateMethod::kRuleBased,
      TemplateMethod::kBagOfWords,    TemplateMethod::kTextMining,
      TemplateMethod::kWordEmbedding, TemplateMethod::kPlanDbscan,
  };
  return kAll;
}

Result<TemplateModel> TemplateModel::Learn(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& train_indices,
    const workloads::WorkloadGenerator& generator,
    const TemplateLearnerOptions& options) {
  if (train_indices.empty()) {
    return Status::InvalidArgument("TemplateModel::Learn with no queries");
  }
  if (options.num_templates < 1 &&
      options.method != TemplateMethod::kRuleBased &&
      options.method != TemplateMethod::kPlanDbscan) {
    return Status::InvalidArgument("num_templates must be >= 1");
  }
  TemplateModel model;
  model.options_ = options;

  // Rule-based needs no training beyond copying the expert rules.
  if (options.method == TemplateMethod::kRuleBased) {
    model.rules_ = text::RuleBasedClassifier(generator.ExpertRules());
    model.num_templates_ = model.rules_.num_templates();
    return model;
  }

  // Train the method-specific featurizer first (needed by Featurize).
  switch (options.method) {
    case TemplateMethod::kBagOfWords: {
      std::vector<std::string> corpus;
      corpus.reserve(train_indices.size());
      for (uint32_t i : train_indices) corpus.push_back(records[i].sql_text);
      WMP_RETURN_IF_ERROR(model.bow_.Fit(corpus, options.bow));
      break;
    }
    case TemplateMethod::kTextMining:
      WMP_RETURN_IF_ERROR(
          model.schema_vectorizer_.Fit(generator.catalog()));
      break;
    case TemplateMethod::kWordEmbedding: {
      std::vector<std::string> corpus;
      corpus.reserve(train_indices.size());
      for (uint32_t i : train_indices) corpus.push_back(records[i].sql_text);
      text::EmbeddingOptions emb = options.embedding;
      emb.seed = options.seed;
      WMP_RETURN_IF_ERROR(model.embeddings_.Fit(corpus, emb));
      break;
    }
    default:
      break;  // plan features need no featurizer training
  }

  // Assemble the feature matrix (Alg. 1 lines 4-8) in one batch pass, then
  // standardize it in place — training featurization shares the batched
  // pipeline with inference.
  WMP_ASSIGN_OR_RETURN(ml::Matrix scaled,
                       model.FeaturizeBatch(records, train_indices));
  WMP_RETURN_IF_ERROR(model.scaler_.Fit(scaled));
  WMP_RETURN_IF_ERROR(model.scaler_.TransformInPlace(&scaled));

  if (options.method == TemplateMethod::kPlanDbscan) {
    ml::Dbscan dbscan;
    WMP_RETURN_IF_ERROR(dbscan.Fit(scaled, options.dbscan));
    if (dbscan.num_clusters() == 0) {
      return Status::FailedPrecondition(
          "DBSCAN found no clusters; loosen eps/min_points");
    }
    model.dbscan_centroids_ = dbscan.centroids();
    model.num_templates_ = dbscan.num_clusters();
    model.BuildAssignPath();
    return model;
  }

  // k-means path (Alg. 1 line 9).
  ml::KMeansOptions km = options.kmeans;
  km.num_clusters = options.num_templates;
  km.seed = options.seed;
  WMP_RETURN_IF_ERROR(model.kmeans_.Fit(scaled, km));
  model.num_templates_ = model.kmeans_.num_clusters();
  model.BuildAssignPath();
  return model;
}

void TemplateModel::BuildAssignPath() {
  if (options_.method != TemplateMethod::kPlanKMeans &&
      options_.method != TemplateMethod::kPlanDbscan) {
    return;
  }
  featurizer_ =
      std::make_shared<PlanFeaturizer>(options_.log_transform_cards);
  centroid_index_ = std::make_shared<ml::CentroidIndex>(AssignCentroids());
  assign_counters_ = std::make_shared<AssignCounters>();
}

ml::CentroidIndex::AssignStats TemplateModel::assign_stats() const {
  ml::CentroidIndex::AssignStats s;
  if (assign_counters_ == nullptr) return s;
  s.rows = assign_counters_->rows.load(std::memory_order_relaxed);
  s.bound_skips =
      assign_counters_->bound_skips.load(std::memory_order_relaxed);
  s.early_exits =
      assign_counters_->early_exits.load(std::memory_order_relaxed);
  s.full_distances =
      assign_counters_->full_distances.load(std::memory_order_relaxed);
  return s;
}

Result<std::vector<double>> TemplateModel::Featurize(
    const workloads::QueryRecord& record) const {
  switch (options_.method) {
    case TemplateMethod::kPlanKMeans:
    case TemplateMethod::kPlanDbscan: {
      if (!options_.log_transform_cards) return record.plan_features;
      // Odd slots hold summed cardinalities (see plan/features.h layout).
      std::vector<double> row = record.plan_features;
      for (size_t i = 1; i < row.size(); i += 2) row[i] = std::log1p(row[i]);
      return row;
    }
    case TemplateMethod::kBagOfWords:
      return bow_.Transform(record.sql_text);
    case TemplateMethod::kTextMining:
      return schema_vectorizer_.Transform(record.sql_text);
    case TemplateMethod::kWordEmbedding:
      return embeddings_.Transform(record.sql_text);
    case TemplateMethod::kRuleBased:
      return Status::Internal("rule-based templates have no feature vector");
  }
  return Status::Internal("unhandled template method");
}

Result<int> TemplateModel::Assign(
    const workloads::QueryRecord& record) const {
  if (num_templates_ == 0) {
    return Status::FailedPrecondition("TemplateModel not learned");
  }
  if (options_.method == TemplateMethod::kRuleBased) {
    return rules_.Classify(record.query);
  }
  WMP_ASSIGN_OR_RETURN(std::vector<double> row, Featurize(record));
  WMP_RETURN_IF_ERROR(scaler_.TransformRow(&row));
  if (options_.method == TemplateMethod::kPlanDbscan) {
    double best = std::numeric_limits<double>::max();
    int best_c = 0;
    for (size_t c = 0; c < dbscan_centroids_.rows(); ++c) {
      const double d = ml::SquaredDistance(
          row.data(), dbscan_centroids_.RowPtr(c), row.size());
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    return best_c;
  }
  return kmeans_.Assign(row);
}

Result<ml::Matrix> TemplateModel::FeaturizeBatch(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& indices) const {
  const size_t n = indices.size();
  switch (options_.method) {
    case TemplateMethod::kPlanKMeans:
    case TemplateMethod::kPlanDbscan: {
      // Fast path: plan features are precomputed per record, so batching is
      // a parallel gather into contiguous rows (plus the optional log1p).
      if (n == 0) return Status::InvalidArgument("FeaturizeBatch: no rows");
      const size_t d = records[indices[0]].plan_features.size();
      ml::Matrix z(n, d);
      std::atomic<bool> mismatch{false};
      const bool log_cards = options_.log_transform_cards;
      util::ParallelFor(n, 512, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const std::vector<double>& f = records[indices[i]].plan_features;
          if (f.size() != d) {
            mismatch.store(true, std::memory_order_relaxed);
            return;
          }
          double* row = z.RowPtr(i);
          std::copy(f.begin(), f.end(), row);
          if (log_cards) {
            // Odd slots hold summed cardinalities (plan/features.h layout).
            for (size_t c = 1; c < d; c += 2) row[c] = std::log1p(row[c]);
          }
        }
      });
      if (mismatch.load(std::memory_order_relaxed)) {
        return Status::InvalidArgument(
            "records disagree on plan-feature length");
      }
      return z;
    }
    default: {
      // Text-based ablation methods: their vectorizers are not declared
      // thread-safe, so keep the row loop serial.
      ml::Matrix z;
      for (uint32_t i : indices) {
        WMP_ASSIGN_OR_RETURN(std::vector<double> row, Featurize(records[i]));
        WMP_RETURN_IF_ERROR(z.AppendRow(row));
      }
      return z;
    }
  }
}

Result<std::vector<int>> TemplateModel::AssignBatch(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& indices) const {
  if (num_templates_ == 0) {
    return Status::FailedPrecondition("TemplateModel not learned");
  }
  if (indices.empty()) return std::vector<int>{};

  if (options_.method == TemplateMethod::kRuleBased) {
    std::vector<int> ids(indices.size());
    util::ParallelFor(indices.size(), 64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        ids[i] = rules_.Classify(records[indices[i]].query);
      }
    });
    return ids;
  }

  if (options_.method == TemplateMethod::kPlanKMeans ||
      options_.method == TemplateMethod::kPlanDbscan) {
    // Fused cold path: featurize -> standardize -> assign through one
    // thread-local grow-only scratch matrix. Zero per-call heap traffic
    // once the scratch has warmed to the steady-state batch size.
    const Featurizer& featurizer = *featurizer_;
    const size_t n = indices.size();
    thread_local ml::Matrix scratch;
    ml::Matrix& z = scratch;
    z.Reshape(n, featurizer.dim());
    std::atomic<bool> featurize_failed{false};
    util::ParallelFor(n, 512, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (!featurizer.FeaturizeInto(records[indices[i]], z.RowPtr(i))
                 .ok()) {
          featurize_failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    if (featurize_failed.load(std::memory_order_relaxed)) {
      // Serial re-run to surface the exact failing record's status.
      for (uint32_t i : indices) {
        WMP_RETURN_IF_ERROR(featurizer.FeaturizeInto(records[i], z.RowPtr(0)));
      }
      return Status::Internal("featurize failed only under parallelism");
    }
    WMP_RETURN_IF_ERROR(scaler_.TransformInPlace(&z));

    std::vector<int> ids(n);
    if (pruned_assign_ && centroid_index_ != nullptr) {
      ml::CentroidIndex::AssignStats stats;
      centroid_index_->Assign(z.RowPtr(0), n, ids.data(), &stats);
      if (assign_counters_ != nullptr) {
        assign_counters_->rows.fetch_add(stats.rows,
                                         std::memory_order_relaxed);
        assign_counters_->bound_skips.fetch_add(stats.bound_skips,
                                                std::memory_order_relaxed);
        assign_counters_->early_exits.fetch_add(stats.early_exits,
                                                std::memory_order_relaxed);
        assign_counters_->full_distances.fetch_add(
            stats.full_distances, std::memory_order_relaxed);
      }
    } else {
      // Reference oracle: the full scan CentroidIndex must agree with.
      const ml::Matrix& centroids = AssignCentroids();
      util::ParallelFor(n, 256, [&](size_t begin, size_t end) {
        ml::NearestCentroids(z.RowPtr(begin), end - begin, centroids,
                             ids.data() + begin);
      });
    }
    return ids;
  }

  // Text-based ablation methods: batch-gather then full scan.
  WMP_ASSIGN_OR_RETURN(ml::Matrix z, FeaturizeBatch(records, indices));
  WMP_RETURN_IF_ERROR(scaler_.TransformInPlace(&z));
  return kmeans_.AssignAll(z);
}

size_t TemplateModel::SerializedBytes() const {
  BinaryWriter writer;
  scaler_.Serialize(&writer);
  if (kmeans_.fitted()) kmeans_.Serialize(&writer);
  return writer.size();
}

Result<int> ChooseNumTemplates(
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<uint32_t>& train_indices, const std::vector<int>& ks,
    uint64_t seed, std::vector<double>* inertias) {
  if (ks.empty()) return Status::InvalidArgument("empty k candidate list");
  if (train_indices.empty()) {
    return Status::InvalidArgument("no training queries");
  }
  ml::Matrix z = PlanFeatureMatrix(records, train_indices);
  ml::StandardScaler scaler;
  WMP_RETURN_IF_ERROR(scaler.Fit(z));
  WMP_ASSIGN_OR_RETURN(ml::Matrix scaled, scaler.Transform(z));
  ml::KMeansOptions base;
  base.seed = seed;
  base.n_init = 1;  // the sweep itself provides robustness
  WMP_ASSIGN_OR_RETURN(std::vector<double> curve,
                       ml::KMeansElbowCurve(scaled, ks, base));
  const int k = ks[ml::PickElbow(curve)];
  if (inertias != nullptr) *inertias = std::move(curve);
  return k;
}

namespace {
constexpr uint32_t kTemplateModelTag = 0x574D5054;  // "WMPT"
}  // namespace

Status TemplateModel::Serialize(BinaryWriter* writer) const {
  if (num_templates_ == 0) {
    return Status::FailedPrecondition("TemplateModel not learned");
  }
  switch (options_.method) {
    case TemplateMethod::kPlanKMeans:
    case TemplateMethod::kPlanDbscan:
    case TemplateMethod::kRuleBased:
      break;
    default:
      return Status::NotImplemented(
          "text-based template methods are ablation-only and not "
          "serializable");
  }
  writer->WriteU32(kTemplateModelTag);
  writer->WriteU8(static_cast<uint8_t>(options_.method));
  writer->WriteI64(num_templates_);
  writer->WriteU8(options_.log_transform_cards ? 1 : 0);
  switch (options_.method) {
    case TemplateMethod::kPlanKMeans:
      scaler_.Serialize(writer);
      kmeans_.Serialize(writer);
      break;
    case TemplateMethod::kPlanDbscan:
      scaler_.Serialize(writer);
      writer->WriteU64(dbscan_centroids_.rows());
      writer->WriteU64(dbscan_centroids_.cols());
      writer->WriteDoubleVec(dbscan_centroids_.data());
      break;
    case TemplateMethod::kRuleBased: {
      const auto& rules = rules_.rules();
      writer->WriteU64(rules.size());
      for (const text::TemplateRule& rule : rules) {
        writer->WriteString(rule.name);
        writer->WriteU64(rule.required_tables.size());
        for (const std::string& t : rule.required_tables) writer->WriteString(t);
        writer->WriteI64(rule.min_joins);
        writer->WriteI64(rule.max_joins);
        // Optionals encoded as 0 = unset, 1 = false, 2 = true.
        auto enc = [](const std::optional<bool>& v) -> uint8_t {
          return !v.has_value() ? 0 : (*v ? 2 : 1);
        };
        writer->WriteU8(enc(rule.requires_aggregation));
        writer->WriteU8(enc(rule.requires_order_by));
      }
      break;
    }
    default:
      return Status::Internal("unreachable");
  }
  return Status::OK();
}

Result<TemplateModel> TemplateModel::Deserialize(BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != kTemplateModelTag) {
    return Status::InvalidArgument("bad template-model magic tag");
  }
  TemplateModel model;
  WMP_ASSIGN_OR_RETURN(uint8_t method, reader->ReadU8());
  model.options_.method = static_cast<TemplateMethod>(method);
  WMP_ASSIGN_OR_RETURN(int64_t k, reader->ReadI64());
  model.num_templates_ = static_cast<int>(k);
  model.options_.num_templates = model.num_templates_;
  WMP_ASSIGN_OR_RETURN(uint8_t log_flag, reader->ReadU8());
  model.options_.log_transform_cards = log_flag != 0;
  switch (model.options_.method) {
    case TemplateMethod::kPlanKMeans: {
      WMP_ASSIGN_OR_RETURN(model.scaler_,
                           ml::StandardScaler::Deserialize(reader));
      WMP_ASSIGN_OR_RETURN(model.kmeans_, ml::KMeans::Deserialize(reader));
      break;
    }
    case TemplateMethod::kPlanDbscan: {
      WMP_ASSIGN_OR_RETURN(model.scaler_,
                           ml::StandardScaler::Deserialize(reader));
      WMP_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
      WMP_ASSIGN_OR_RETURN(uint64_t cols, reader->ReadU64());
      WMP_ASSIGN_OR_RETURN(std::vector<double> data, reader->ReadDoubleVec());
      if (data.size() != rows * cols) {
        return Status::InvalidArgument("dbscan centroid stream corrupt");
      }
      model.dbscan_centroids_ = ml::Matrix(rows, cols, std::move(data));
      break;
    }
    case TemplateMethod::kRuleBased: {
      WMP_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
      std::vector<text::TemplateRule> rules(n);
      for (uint64_t i = 0; i < n; ++i) {
        text::TemplateRule& rule = rules[i];
        WMP_ASSIGN_OR_RETURN(rule.name, reader->ReadString());
        WMP_ASSIGN_OR_RETURN(uint64_t nt, reader->ReadU64());
        rule.required_tables.resize(nt);
        for (uint64_t t = 0; t < nt; ++t) {
          WMP_ASSIGN_OR_RETURN(rule.required_tables[t], reader->ReadString());
        }
        WMP_ASSIGN_OR_RETURN(int64_t mn, reader->ReadI64());
        rule.min_joins = static_cast<int>(mn);
        WMP_ASSIGN_OR_RETURN(int64_t mx, reader->ReadI64());
        rule.max_joins = static_cast<int>(mx);
        auto dec = [](uint8_t v) -> std::optional<bool> {
          if (v == 0) return std::nullopt;
          return v == 2;
        };
        WMP_ASSIGN_OR_RETURN(uint8_t agg, reader->ReadU8());
        rule.requires_aggregation = dec(agg);
        WMP_ASSIGN_OR_RETURN(uint8_t ord, reader->ReadU8());
        rule.requires_order_by = dec(ord);
      }
      model.rules_ = text::RuleBasedClassifier(std::move(rules));
      break;
    }
    default:
      return Status::InvalidArgument("unsupported serialized template method");
  }
  model.BuildAssignPath();
  return model;
}

}  // namespace wmp::core
