#include "ml/random_forest.h"

#include <cmath>
#include <numeric>

#include "ml/compiled_tree.h"
#include "ml/tree_grower.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace wmp::ml {

Status RandomForestRegressor::Fit(const Matrix& x,
                                  const std::vector<double>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("RF::Fit on empty matrix");
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("RF::Fit target size mismatch");
  }
  if (options_.num_trees < 1) {
    return Status::InvalidArgument("RF needs num_trees >= 1");
  }
  if (options_.tree.growth == TreeGrowth::kReference) {
    fit_timing_ = {};
    Stopwatch sw;
    FeatureBinner binner;
    WMP_RETURN_IF_ERROR(binner.Fit(x, options_.tree.max_bins));
    WMP_ASSIGN_OR_RETURN(std::vector<uint16_t> bins, binner.BinAll(x));
    fit_timing_.bin_ms = sw.ElapsedMillis();

    sw.Reset();
    Rng rng(options_.seed);
    const size_t n = x.rows();
    const size_t sample_n = std::max<size_t>(
        1, static_cast<size_t>(std::llround(options_.bootstrap_fraction *
                                            static_cast<double>(n))));
    trees_.assign(static_cast<size_t>(options_.num_trees), {});
    std::vector<uint32_t> sample(sample_n);
    for (auto& tree : trees_) {
      for (auto& s : sample) {
        s = static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      }
      WMP_RETURN_IF_ERROR(
          tree.Fit(bins, x.cols(), binner, y, sample, options_.tree, &rng));
    }
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

Status RandomForestRegressor::FitWithSharedBins(const Matrix& x,
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

Status RandomForestRegressor::FitFromBinned(const BinnedDataset& data,
                                            const std::vector<double>& y) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("RF::FitFromBinned on empty dataset");
  }
  if (y.size() != data.num_rows()) {
    return Status::InvalidArgument("RF::FitFromBinned target size mismatch");
  }
  if (options_.num_trees < 1) {
    return Status::InvalidArgument("RF needs num_trees >= 1");
  }
  if (options_.tree.growth == TreeGrowth::kReference) {
    return Status::InvalidArgument(
        "FitFromBinned requires histogram growth mode");
  }
  fit_timing_ = {};
  Stopwatch sw;
  Rng rng(options_.seed);
  const size_t n = data.num_rows();
  const size_t sample_n = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options_.bootstrap_fraction *
                                          static_cast<double>(n))));
  trees_.assign(static_cast<size_t>(options_.num_trees), {});
  VarianceTreeGrower grower(data, y, options_.tree);
  std::vector<uint32_t> sample(sample_n);
  std::vector<TreeNode> nodes;  // reused scratch across trees
  for (auto& tree : trees_) {
    for (auto& s : sample) {
      s = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    WMP_RETURN_IF_ERROR(grower.Grow(sample, &rng, &nodes));
    tree = RegressionTree::FromNodes(nodes);
  }
  fit_timing_.grow_ms = sw.ElapsedMillis();
  grower_stats_ = grower.stats();
  return Status::OK();
}

Result<double> RandomForestRegressor::PredictOne(
    const std::vector<double>& x) const {
  if (trees_.empty()) return Status::FailedPrecondition("RF not fitted");
  double acc = 0.0;
  for (const auto& tree : trees_) acc += tree.Predict(x);
  return acc / static_cast<double>(trees_.size());
}

Result<std::vector<double>> RandomForestRegressor::Predict(
    const Matrix& x) const {
  if (trees_.empty()) return Status::FailedPrecondition("RF not fitted");
  std::vector<double> out(x.rows());
  util::ParallelFor(x.rows(), kTreePredictGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* row = x.RowPtr(i);
      double acc = 0.0;
      for (const auto& tree : trees_) acc += tree.Predict(row, x.cols());
      out[i] = acc / static_cast<double>(trees_.size());
    }
  });
  return out;
}

// Compiled bin-space codec (ml/compiled_tree.h): all trees share one edge
// table and nodes ship as (child i32, feature u16, code u8/u16) — the
// dominant cost in an RF stream, since thresholds repeat heavily across
// bootstrapped trees. Decompile() restores the trees losslessly.
Status RandomForestRegressor::Serialize(BinaryWriter* writer) const {
  if (trees_.empty()) return Status::FailedPrecondition("RF not fitted");
  writer->WriteU32(serialize_tags::kRandomForest);
  WMP_ASSIGN_OR_RETURN(CompiledEnsemble compiled,
                       CompiledEnsemble::Compile(*this));
  compiled.Serialize(writer);
  return Status::OK();
}

Result<std::unique_ptr<RandomForestRegressor>> RandomForestRegressor::Deserialize(
    BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != serialize_tags::kRandomForest) {
    return Status::InvalidArgument("bad random-forest magic tag");
  }
  WMP_ASSIGN_OR_RETURN(CompiledEnsemble compiled,
                       CompiledEnsemble::Deserialize(reader));
  if (compiled.combine() != CompiledEnsemble::Combine::kAverage) {
    return Status::InvalidArgument("stream is not a random forest");
  }
  auto model = std::make_unique<RandomForestRegressor>();
  WMP_ASSIGN_OR_RETURN(model->trees_, compiled.Decompile());
  return model;
}

}  // namespace wmp::ml
