#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/compiled_tree.h"
#include "ml/tree_grower.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace wmp::ml {

namespace {

struct BuildItem {
  int node = 0;
  size_t begin = 0;
  size_t end = 0;
  int depth = 0;
  double g_sum = 0.0;
  double h_sum = 0.0;
};

// Reference builder: grows one tree on gradient statistics from the
// row-major bin buffer, allocating the per-feature histogram at every node.
// Retained as the equivalence baseline for GbtTreeGrower — production
// training uses the histogram engine.
class GbtTreeBuilder {
 public:
  GbtTreeBuilder(const std::vector<uint16_t>& bins, size_t num_features,
                 const FeatureBinner& binner, const GbtOptions& opt, Rng* rng)
      : bins_(bins),
        d_(num_features),
        binner_(binner),
        opt_(opt),
        rng_(rng) {}

  std::vector<TreeNode> Build(const std::vector<GradHess>& gh,
                              std::vector<uint32_t> idx) {
    nodes_.clear();
    nodes_.push_back({});
    // Per-round feature subsample.
    features_.resize(d_);
    std::iota(features_.begin(), features_.end(), 0);
    if (opt_.colsample < 1.0) {
      rng_->Shuffle(&features_);
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(
                 std::ceil(opt_.colsample * static_cast<double>(d_))));
      features_.resize(keep);
    }

    double g0 = 0.0, h0 = 0.0;
    for (uint32_t r : idx) {
      g0 += gh[r].g;
      h0 += gh[r].h;
    }
    std::vector<BuildItem> stack;
    stack.push_back({0, 0, idx.size(), 0, g0, h0});
    while (!stack.empty()) {
      BuildItem item = stack.back();
      stack.pop_back();
      ProcessNode(gh, &idx, item, &stack);
    }
    return std::move(nodes_);
  }

 private:
  void ProcessNode(const std::vector<GradHess>& gh, std::vector<uint32_t>* idx,
                   const BuildItem& item, std::vector<BuildItem>* stack) {
    TreeNode& node = nodes_[static_cast<size_t>(item.node)];
    const double lambda = opt_.lambda;
    node.value = -item.g_sum / (item.h_sum + lambda);

    if (item.depth >= opt_.max_depth ||
        item.h_sum < 2.0 * opt_.min_child_weight) {
      return;
    }
    const double parent_score =
        item.g_sum * item.g_sum / (item.h_sum + lambda);

    double best_gain = 0.0;
    size_t best_feature = 0;
    uint16_t best_bin = 0;
    double best_gl = 0.0, best_hl = 0.0;
    for (size_t f : features_) {
      const size_t nbins = binner_.NumBins(f);
      if (nbins < 2) continue;
      hist_.assign(nbins, {});
      for (size_t i = item.begin; i < item.end; ++i) {
        const uint32_t r = (*idx)[i];
        GradHess& b = hist_[bins_[r * d_ + f]];
        b.g += gh[r].g;
        b.h += gh[r].h;
      }
      double gl = 0.0, hl = 0.0;
      for (size_t b = 0; b + 1 < nbins; ++b) {
        gl += hist_[b].g;
        hl += hist_[b].h;
        const double gr = item.g_sum - gl;
        const double hr = item.h_sum - hl;
        if (hl < opt_.min_child_weight || hr < opt_.min_child_weight) continue;
        const double gain =
            0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) -
                   parent_score) -
            opt_.gamma;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_feature = f;
          best_bin = static_cast<uint16_t>(b);
          best_gl = gl;
          best_hl = hl;
        }
      }
    }
    if (best_gain <= 0.0) return;

    auto mid_it = std::partition(
        idx->begin() + static_cast<std::ptrdiff_t>(item.begin),
        idx->begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](uint32_t r) { return bins_[r * d_ + best_feature] <= best_bin; });
    const size_t mid = static_cast<size_t>(mid_it - idx->begin());
    if (mid == item.begin || mid == item.end) return;

    // push_back may reallocate, so finish all writes through the index
    // rather than the `node` reference.
    const int left_id = static_cast<int>(nodes_.size());
    const int right_id = left_id + 1;
    nodes_.push_back({});
    nodes_.push_back({});
    TreeNode& split_node = nodes_[static_cast<size_t>(item.node)];
    split_node.feature = static_cast<int>(best_feature);
    split_node.threshold = binner_.UpperEdge(best_feature, best_bin);
    split_node.left = left_id;
    split_node.right = right_id;
    stack->push_back({right_id, mid, item.end, item.depth + 1,
                      item.g_sum - best_gl, item.h_sum - best_hl});
    stack->push_back(
        {left_id, item.begin, mid, item.depth + 1, best_gl, best_hl});
  }

  const std::vector<uint16_t>& bins_;
  const size_t d_;
  const FeatureBinner& binner_;
  const GbtOptions& opt_;
  Rng* rng_;
  std::vector<TreeNode> nodes_;
  std::vector<size_t> features_;
  std::vector<GradHess> hist_;
};

}  // namespace

Status GbtRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("GBT::Fit on empty matrix");
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("GBT::Fit target size mismatch");
  }
  if (options_.num_rounds < 1) {
    return Status::InvalidArgument("GBT needs num_rounds >= 1");
  }
  if (options_.growth != TreeGrowth::kReference) {
    Stopwatch sw;
    WMP_ASSIGN_OR_RETURN(BinnedDataset data,
                         BinnedDataset::Build(x, options_.max_bins));
    const double bin_ms = sw.ElapsedMillis();
    WMP_RETURN_IF_ERROR(FitFromBinned(data, y));
    fit_timing_.bin_ms = bin_ms;  // FitFromBinned reset it to 0 (shared bins)
    return Status::OK();
  }

  fit_timing_ = {};
  grower_stats_ = {};
  Stopwatch sw;
  FeatureBinner binner;
  WMP_RETURN_IF_ERROR(binner.Fit(x, options_.max_bins));
  WMP_ASSIGN_OR_RETURN(std::vector<uint16_t> bins, binner.BinAll(x));
  fit_timing_.bin_ms = sw.ElapsedMillis();

  const size_t n = x.rows();
  base_score_ = 0.0;
  for (double v : y) base_score_ += v;
  base_score_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_score_);
  std::vector<GradHess> gh(n);
  Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(static_cast<size_t>(options_.num_rounds));

  std::vector<uint32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);

  for (int round = 0; round < options_.num_rounds; ++round) {
    sw.Reset();
    // Squared-error loss: g = pred - y, h = 1.
    for (size_t i = 0; i < n; ++i) {
      gh[i].g = pred[i] - y[i];
      gh[i].h = 1.0;
    }
    fit_timing_.update_ms += sw.ElapsedMillis();
    sw.Reset();
    std::vector<uint32_t> sample;
    if (options_.subsample < 1.0) {
      sample.reserve(n);
      for (uint32_t r : all_rows) {
        if (rng.Bernoulli(options_.subsample)) sample.push_back(r);
      }
      if (sample.empty()) sample = all_rows;
    } else {
      sample = all_rows;
    }
    GbtTreeBuilder builder(bins, x.cols(), binner, options_, &rng);
    RegressionTree tree =
        RegressionTree::FromNodes(builder.Build(gh, std::move(sample)));
    fit_timing_.grow_ms += sw.ElapsedMillis();
    sw.Reset();
    for (size_t i = 0; i < n; ++i) {
      pred[i] += options_.learning_rate * tree.Predict(x.RowPtr(i), x.cols());
    }
    fit_timing_.update_ms += sw.ElapsedMillis();
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

Status GbtRegressor::FitWithSharedBins(const Matrix& x,
                                       const std::vector<double>& y,
                                       BinnedDatasetCache* cache) {
  if (cache == nullptr || options_.growth != TreeGrowth::kHistogram ||
      x.rows() == 0 || x.cols() == 0 || y.size() != x.rows()) {
    return Fit(x, y);
  }
  WMP_ASSIGN_OR_RETURN(const BinnedDataset* data,
                       cache->Get(x, options_.max_bins));
  return FitFromBinned(*data, y);
}

Status GbtRegressor::FitFromBinned(const BinnedDataset& data,
                                   const std::vector<double>& y) {
  const size_t n = data.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("GBT::FitFromBinned on empty dataset");
  }
  if (y.size() != n) {
    return Status::InvalidArgument("GBT::FitFromBinned target size mismatch");
  }
  if (options_.num_rounds < 1) {
    return Status::InvalidArgument("GBT needs num_rounds >= 1");
  }
  if (options_.growth == TreeGrowth::kReference) {
    return Status::InvalidArgument(
        "FitFromBinned requires histogram growth mode");
  }
  fit_timing_ = {};

  const size_t d = data.num_features();
  base_score_ = 0.0;
  for (double v : y) base_score_ += v;
  base_score_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_score_);
  std::vector<GradHess> gh(n);
  Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(static_cast<size_t>(options_.num_rounds));

  std::vector<uint32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<uint32_t> sample;
  std::vector<size_t> features;
  std::vector<uint8_t> in_sample(n);
  const size_t colsample_keep = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(options_.colsample * static_cast<double>(d))));

  GbtGrowParams params;
  params.max_depth = options_.max_depth;
  params.lambda = options_.lambda;
  params.gamma = options_.gamma;
  params.min_child_weight = options_.min_child_weight;
  GbtTreeGrower grower(data, params);
  std::vector<TreeNode> nodes;  // reused scratch across rounds

  const double lr = options_.learning_rate;
  Stopwatch sw;
  for (int round = 0; round < options_.num_rounds; ++round) {
    sw.Reset();
    // Squared-error loss: g = pred - y, h = 1.
    for (size_t i = 0; i < n; ++i) {
      gh[i].g = pred[i] - y[i];
      gh[i].h = 1.0;
    }
    fit_timing_.update_ms += sw.ElapsedMillis();

    sw.Reset();
    // Row then feature sampling, consuming the RNG in the reference
    // builder's order so both engines see identical draws.
    if (options_.subsample < 1.0) {
      sample.clear();
      for (uint32_t r : all_rows) {
        if (rng.Bernoulli(options_.subsample)) sample.push_back(r);
      }
      if (sample.empty()) sample = all_rows;
    } else {
      sample = all_rows;
    }
    features.resize(d);
    std::iota(features.begin(), features.end(), 0);
    if (options_.colsample < 1.0) {
      rng.Shuffle(&features);
      features.resize(colsample_keep);
    }
    WMP_RETURN_IF_ERROR(grower.Grow(gh, sample, features, &nodes));
    fit_timing_.grow_ms += sw.ElapsedMillis();

    sw.Reset();
    // In-sample rows update by leaf-membership scatter: the in-place
    // partition already grouped them by leaf, and the per-leaf delta is the
    // exact value raw re-traversal would add.
    const std::vector<uint32_t>& order = grower.row_order();
    for (const GbtTreeGrower::LeafRange& leaf : grower.leaf_ranges()) {
      const double delta = lr * nodes[static_cast<size_t>(leaf.node)].value;
      for (size_t i = leaf.begin; i < leaf.end; ++i) pred[order[i]] += delta;
    }
    // Out-of-sample rows traverse the fresh tree in bin space (same leaf as
    // raw-feature traversal by the bin/threshold equivalence).
    if (order.size() < n) {
      std::fill(in_sample.begin(), in_sample.end(), 0);
      for (uint32_t r : order) in_sample[r] = 1;
      for (uint32_t r = 0; r < static_cast<uint32_t>(n); ++r) {
        if (!in_sample[r]) pred[r] += lr * grower.PredictRow(nodes, r);
      }
    }
    fit_timing_.update_ms += sw.ElapsedMillis();
    trees_.push_back(RegressionTree::FromNodes(nodes));
  }
  grower_stats_ = grower.stats();
  return Status::OK();
}

Result<double> GbtRegressor::PredictOne(const std::vector<double>& x) const {
  if (trees_.empty()) return Status::FailedPrecondition("GBT not fitted");
  double acc = base_score_;
  for (const auto& tree : trees_) {
    acc += options_.learning_rate * tree.Predict(x);
  }
  return acc;
}

Result<std::vector<double>> GbtRegressor::Predict(const Matrix& x) const {
  if (trees_.empty()) return Status::FailedPrecondition("GBT not fitted");
  std::vector<double> out(x.rows());
  util::ParallelFor(x.rows(), kTreePredictGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* row = x.RowPtr(i);
      double acc = base_score_;
      for (const auto& tree : trees_) {
        acc += options_.learning_rate * tree.Predict(row, x.cols());
      }
      out[i] = acc;
    }
  });
  return out;
}

// Compiled bin-space codec (ml/compiled_tree.h). The stream's base score
// and per-tree scale carry base_score_ / learning_rate, so deserialization
// restores both the trees (losslessly, via Decompile) and the prediction
// arithmetic exactly.
Status GbtRegressor::Serialize(BinaryWriter* writer) const {
  if (trees_.empty()) return Status::FailedPrecondition("GBT not fitted");
  writer->WriteU32(serialize_tags::kGbt);
  WMP_ASSIGN_OR_RETURN(CompiledEnsemble compiled,
                       CompiledEnsemble::Compile(*this));
  compiled.Serialize(writer);
  return Status::OK();
}

Result<std::unique_ptr<GbtRegressor>> GbtRegressor::Deserialize(
    BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != serialize_tags::kGbt) {
    return Status::InvalidArgument("bad gbt magic tag");
  }
  WMP_ASSIGN_OR_RETURN(CompiledEnsemble compiled,
                       CompiledEnsemble::Deserialize(reader));
  if (compiled.combine() != CompiledEnsemble::Combine::kBoosted) {
    return Status::InvalidArgument("stream is not a boosted ensemble");
  }
  GbtOptions opt;
  opt.learning_rate = compiled.scale();
  auto model = std::make_unique<GbtRegressor>(opt);
  model->base_score_ = compiled.base_score();
  WMP_ASSIGN_OR_RETURN(model->trees_, compiled.Decompile());
  return model;
}

}  // namespace wmp::ml
