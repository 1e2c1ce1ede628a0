#include "ml/dtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/compiled_tree.h"
#include "ml/tree_grower.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace wmp::ml {

namespace {

// Work item for iterative (stack-based) reference tree construction.
struct BuildItem {
  int node = 0;
  size_t begin = 0;  // range into the shared index buffer
  size_t end = 0;
  int depth = 0;
};

struct BinStats {
  double sum = 0.0;
  uint32_t count = 0;
};

}  // namespace

Status RegressionTree::Fit(const std::vector<uint16_t>& bins,
                           size_t num_features, const FeatureBinner& binner,
                           const std::vector<double>& y,
                           const std::vector<uint32_t>& row_indices,
                           const TreeOptions& options, Rng* rng) {
  if (row_indices.empty()) {
    return Status::InvalidArgument("RegressionTree::Fit with no rows");
  }
  if (num_features == 0 || bins.size() % num_features != 0) {
    return Status::InvalidArgument("RegressionTree::Fit bad bin buffer");
  }
  nodes_.clear();
  nodes_.push_back({});

  std::vector<uint32_t> idx = row_indices;  // partitioned in place
  std::vector<BuildItem> stack;
  stack.push_back({0, 0, idx.size(), 0});

  const size_t feat_per_split =
      options.feature_fraction <= 0.0
          ? num_features
          : std::max<size_t>(
                1, static_cast<size_t>(
                       std::ceil(options.feature_fraction *
                                 static_cast<double>(num_features))));
  std::vector<size_t> feature_order(num_features);
  std::iota(feature_order.begin(), feature_order.end(), 0);

  while (!stack.empty()) {
    BuildItem item = stack.back();
    stack.pop_back();
    const size_t n_node = item.end - item.begin;

    double sum = 0.0, sum2 = 0.0;
    for (size_t i = item.begin; i < item.end; ++i) {
      const double v = y[idx[i]];
      sum += v;
      sum2 += v * v;
    }
    const double node_mean = sum / static_cast<double>(n_node);
    TreeNode& node = nodes_[static_cast<size_t>(item.node)];
    node.value = node_mean;

    const double node_sse = sum2 - sum * sum / static_cast<double>(n_node);
    const bool can_split =
        item.depth < options.max_depth &&
        n_node >= static_cast<size_t>(options.min_samples_split) &&
        node_sse > 1e-12;
    if (!can_split) continue;

    // Sample the features examined at this node (random forests).
    if (feat_per_split < num_features) rng->Shuffle(&feature_order);

    double best_gain = 0.0;
    size_t best_feature = 0;
    uint16_t best_bin = 0;
    for (size_t fi = 0; fi < feat_per_split; ++fi) {
      const size_t f = feature_order[fi];
      const size_t nbins = binner.NumBins(f);
      if (nbins < 2) continue;
      std::vector<BinStats> hist(nbins);
      for (size_t i = item.begin; i < item.end; ++i) {
        const uint32_t r = idx[i];
        BinStats& b = hist[bins[r * num_features + f]];
        b.sum += y[r];
        ++b.count;
      }
      double left_sum = 0.0;
      uint32_t left_count = 0;
      for (size_t b = 0; b + 1 < nbins; ++b) {
        left_sum += hist[b].sum;
        left_count += hist[b].count;
        const uint32_t right_count =
            static_cast<uint32_t>(n_node) - left_count;
        if (left_count < static_cast<uint32_t>(options.min_samples_leaf) ||
            right_count < static_cast<uint32_t>(options.min_samples_leaf)) {
          continue;
        }
        if (left_count == 0 || right_count == 0) continue;
        const double right_sum = sum - left_sum;
        // Variance-reduction gain, constant terms dropped:
        // gain = SL^2/nL + SR^2/nR - S^2/n
        const double gain = left_sum * left_sum / left_count +
                            right_sum * right_sum / right_count -
                            sum * sum / static_cast<double>(n_node);
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_feature = f;
          best_bin = static_cast<uint16_t>(b);
        }
      }
    }
    if (best_gain <= 0.0) continue;

    // Partition rows of this node in place around the chosen split.
    auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(item.begin),
        idx.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](uint32_t r) {
          return bins[r * num_features + best_feature] <= best_bin;
        });
    const size_t mid =
        static_cast<size_t>(mid_it - idx.begin());
    if (mid == item.begin || mid == item.end) continue;  // degenerate

    // push_back may reallocate, so finish all writes through the index
    // rather than the `node` reference.
    const int left_id = static_cast<int>(nodes_.size());
    const int right_id = left_id + 1;
    nodes_.push_back({});
    nodes_.push_back({});
    TreeNode& split_node = nodes_[static_cast<size_t>(item.node)];
    split_node.feature = static_cast<int>(best_feature);
    split_node.threshold = binner.UpperEdge(best_feature, best_bin);
    split_node.left = left_id;
    split_node.right = right_id;
    stack.push_back({right_id, mid, item.end, item.depth + 1});
    stack.push_back({left_id, item.begin, mid, item.depth + 1});
  }
  return Status::OK();
}

RegressionTree RegressionTree::FromNodes(std::vector<TreeNode> nodes) {
  RegressionTree t;
  t.nodes_ = std::move(nodes);
  return t;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  return Predict(x.data(), x.size());
}

double RegressionTree::Predict(const double* x, size_t n) const {
  int i = 0;
  while (nodes_[static_cast<size_t>(i)].feature >= 0) {
    const TreeNode& node = nodes_[static_cast<size_t>(i)];
    if (static_cast<size_t>(node.feature) >= n) return node.value;
    i = x[static_cast<size_t>(node.feature)] <= node.threshold ? node.left
                                                               : node.right;
  }
  return nodes_[static_cast<size_t>(i)].value;
}

void RegressionTree::Serialize(BinaryWriter* writer) const {
  writer->WriteU64(nodes_.size());
  for (const TreeNode& n : nodes_) {
    writer->WriteI64(n.feature);
    writer->WriteDouble(n.threshold);
    writer->WriteI64(n.left);
    writer->WriteI64(n.right);
    writer->WriteDouble(n.value);
  }
}

Result<RegressionTree> RegressionTree::Deserialize(BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  RegressionTree t;
  t.nodes_.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    TreeNode& node = t.nodes_[i];
    WMP_ASSIGN_OR_RETURN(int64_t f, reader->ReadI64());
    node.feature = static_cast<int>(f);
    WMP_ASSIGN_OR_RETURN(node.threshold, reader->ReadDouble());
    WMP_ASSIGN_OR_RETURN(int64_t l, reader->ReadI64());
    node.left = static_cast<int>(l);
    WMP_ASSIGN_OR_RETURN(int64_t r, reader->ReadI64());
    node.right = static_cast<int>(r);
    WMP_ASSIGN_OR_RETURN(node.value, reader->ReadDouble());
  }
  return t;
}

Status DecisionTreeRegressor::Fit(const Matrix& x,
                                  const std::vector<double>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("DT::Fit on empty matrix");
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("DT::Fit target size mismatch");
  }
  if (options_.tree.growth == TreeGrowth::kReference) {
    fit_timing_ = {};
    Stopwatch sw;
    FeatureBinner binner;
    WMP_RETURN_IF_ERROR(binner.Fit(x, options_.tree.max_bins));
    WMP_ASSIGN_OR_RETURN(std::vector<uint16_t> bins, binner.BinAll(x));
    fit_timing_.bin_ms = sw.ElapsedMillis();
    sw.Reset();
    std::vector<uint32_t> rows(x.rows());
    std::iota(rows.begin(), rows.end(), 0);
    Rng rng(options_.seed);
    WMP_RETURN_IF_ERROR(
        tree_.Fit(bins, x.cols(), binner, y, rows, options_.tree, &rng));
    fit_timing_.grow_ms = sw.ElapsedMillis();
    grower_stats_ = {};
    return Status::OK();
  }
  Stopwatch sw;
  WMP_ASSIGN_OR_RETURN(BinnedDataset data,
                       BinnedDataset::Build(x, options_.tree.max_bins));
  const double bin_ms = sw.ElapsedMillis();
  WMP_RETURN_IF_ERROR(FitFromBinned(data, y));
  fit_timing_.bin_ms = bin_ms;  // FitFromBinned reset it to 0 (shared bins)
  return Status::OK();
}

Status DecisionTreeRegressor::FitWithSharedBins(const Matrix& x,
                                                const std::vector<double>& y,
                                                BinnedDatasetCache* cache) {
  if (cache == nullptr || options_.tree.growth != TreeGrowth::kHistogram ||
      x.rows() == 0 || x.cols() == 0 || y.size() != x.rows()) {
    return Fit(x, y);
  }
  WMP_ASSIGN_OR_RETURN(const BinnedDataset* data,
                       cache->Get(x, options_.tree.max_bins));
  return FitFromBinned(*data, y);
}

Status DecisionTreeRegressor::FitFromBinned(const BinnedDataset& data,
                                            const std::vector<double>& y) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("DT::FitFromBinned on empty dataset");
  }
  if (y.size() != data.num_rows()) {
    return Status::InvalidArgument("DT::FitFromBinned target size mismatch");
  }
  if (options_.tree.growth == TreeGrowth::kReference) {
    return Status::InvalidArgument(
        "FitFromBinned requires histogram growth mode");
  }
  fit_timing_ = {};
  Stopwatch sw;
  std::vector<uint32_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  Rng rng(options_.seed);
  VarianceTreeGrower grower(data, y, options_.tree);
  std::vector<TreeNode> nodes;
  WMP_RETURN_IF_ERROR(grower.Grow(rows, &rng, &nodes));
  tree_ = RegressionTree::FromNodes(std::move(nodes));
  fit_timing_.grow_ms = sw.ElapsedMillis();
  grower_stats_ = grower.stats();
  return Status::OK();
}

Result<double> DecisionTreeRegressor::PredictOne(
    const std::vector<double>& x) const {
  if (!tree_.fitted()) return Status::FailedPrecondition("DT not fitted");
  return tree_.Predict(x);
}

Result<std::vector<double>> DecisionTreeRegressor::Predict(
    const Matrix& x) const {
  if (!tree_.fitted()) return Status::FailedPrecondition("DT not fitted");
  std::vector<double> out(x.rows());
  util::ParallelFor(x.rows(), kTreePredictGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = tree_.Predict(x.RowPtr(i), x.cols());
    }
  });
  return out;
}

// The stream body is the compiled bin-space form (ml/compiled_tree.h):
// one shared edge table plus ~7 bytes per node instead of five 8-byte
// fields. Decompile() restores the exact thresholds and topology, so the
// codec change is invisible to predictions.
Status DecisionTreeRegressor::Serialize(BinaryWriter* writer) const {
  if (!tree_.fitted()) return Status::FailedPrecondition("DT not fitted");
  writer->WriteU32(serialize_tags::kDecisionTree);
  WMP_ASSIGN_OR_RETURN(CompiledEnsemble compiled,
                       CompiledEnsemble::Compile(*this));
  compiled.Serialize(writer);
  return Status::OK();
}

Result<std::unique_ptr<DecisionTreeRegressor>> DecisionTreeRegressor::Deserialize(
    BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != serialize_tags::kDecisionTree) {
    return Status::InvalidArgument("bad decision-tree magic tag");
  }
  WMP_ASSIGN_OR_RETURN(CompiledEnsemble compiled,
                       CompiledEnsemble::Deserialize(reader));
  if (compiled.combine() != CompiledEnsemble::Combine::kSingle ||
      compiled.num_trees() != 1) {
    return Status::InvalidArgument("stream is not a single decision tree");
  }
  WMP_ASSIGN_OR_RETURN(std::vector<RegressionTree> trees,
                       compiled.Decompile());
  auto model = std::make_unique<DecisionTreeRegressor>();
  model->tree_ = std::move(trees.front());
  return model;
}

}  // namespace wmp::ml
