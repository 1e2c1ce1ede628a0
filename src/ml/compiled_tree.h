#ifndef WMP_ML_COMPILED_TREE_H_
#define WMP_ML_COMPILED_TREE_H_

/// \file compiled_tree.h
/// Bin-space compiled inference for the tree families (DT / RF / GBT).
///
/// A fitted ensemble is flattened into contiguous structure-of-arrays node
/// blocks laid out breadth-first per tree, and prediction runs directly on
/// bin codes instead of raw doubles:
///
///   - per-feature cut points are the sorted distinct thresholds the
///     ensemble's nodes actually store, so each node's double threshold
///     compresses to its u8/u16 index in that edge table — exactly
///     recoverable, making Decompile() lossless;
///   - a row is binned once per used feature (`FeatureBinner::BinValue`),
///     then every tree traversal is integer compares over a few contiguous
///     arrays: no float compares, no pointer chasing, ~7 bytes per node
///     instead of a 40-byte TreeNode;
///   - BFS layout stores siblings adjacently, so only the left child index
///     is kept (right = left + 1) and the branch is the branchless
///     `i = child + (code[feature] > node_code)`;
///   - batch prediction traverses 8 rows per tree in lockstep: the 8
///     dependent-load chains are independent, so they overlap in flight
///     (memory-level parallelism) and each tree's node lines are touched
///     once per 8-row block instead of once per row. A lane that reaches a
///     leaf parks there — its stored child stays negative, so a branchless
///     select keeps re-applying the identity step until every lane has
///     parked. Row-count tails (and single rows) take the scalar walk;
///     per-row accumulation runs in tree order either way, so both walks
///     are bitwise-identical.
///
/// Equivalence with the raw-space reference walk is provable, not
/// statistical: for a strictly increasing edge table,
/// `BinValue(f, x) <= code(t)  <=>  x <= t` (binned.h's UpperEdge
/// guarantee), so a compiled traversal reaches the same leaf as
/// `RegressionTree::Predict` for every input, and the per-family
/// accumulation (RF sum-then-divide, GBT base + lr * leaf per round) keeps
/// the reference operation order — predictions are bitwise identical.
/// tests/compiled_test.cc and the bench equivalence gates enforce this.
///
/// The compiled form is also the serialization codec for the tree-family
/// regressors: internal nodes ship (u16 feature, u8/u16 code, i32 child)
/// plus one shared edge table instead of five 8-byte fields per node,
/// which is what shrinks Fig. 8's tree-model payloads and the wire/publish
/// artifacts.

#include <cstdint>
#include <vector>

#include "ml/binned.h"
#include "ml/dtree.h"

namespace wmp::ml {

class DecisionTreeRegressor;
class GbtRegressor;
class RandomForestRegressor;
class Regressor;

/// \brief A fitted tree ensemble flattened for bin-space prediction.
///
/// Immutable after construction; Predict/PredictRow are const and
/// thread-safe, so one compiled ensemble can back concurrent serving
/// shards.
class CompiledEnsemble {
 public:
  /// How per-tree leaf values combine into the prediction. Mirrors each
  /// family's Predict arithmetic operation-for-operation.
  enum class Combine : uint8_t {
    kSingle = 0,   ///< DT: the single tree's leaf value
    kAverage = 1,  ///< RF: sum over trees, then divide by tree count
    kBoosted = 2,  ///< GBT: base_score + sum of scale * leaf per tree
  };

  static Result<CompiledEnsemble> Compile(const DecisionTreeRegressor& model);
  static Result<CompiledEnsemble> Compile(const RandomForestRegressor& model);
  static Result<CompiledEnsemble> Compile(const GbtRegressor& model);
  /// Family-dispatching entry: compiles any tree-family regressor, fails
  /// with FailedPrecondition for families without a tree form (Ridge, MLP)
  /// — callers treat that as "serve through the reference path".
  static Result<CompiledEnsemble> CompileRegressor(const Regressor& model);

  /// Predicts one raw-feature row of width `n >= num_features()`. Bins the
  /// used features, then traverses every tree in bin space.
  double PredictRow(const double* x, size_t n) const;

  /// Checked single-row convenience (PredictOne-shaped).
  Result<double> PredictOne(const std::vector<double>& x) const;

  /// Batch prediction over the rows of `x` (cols >= num_features()).
  /// Columns are binned once via the multi-probe searches, then row blocks
  /// traverse on the shared worker pool — same grain as the reference
  /// batch Predict, and bitwise the same predictions.
  Result<std::vector<double>> Predict(const Matrix& x) const;

  /// Reconstructs the ensemble as reference RegressionTrees. Lossless for
  /// everything prediction reads: thresholds come back as the exact
  /// doubles (edge-table lookup), leaf values and tree topology are
  /// preserved. Internal-node mean values (never read by Predict) are not
  /// carried and decompile to 0.
  Result<std::vector<RegressionTree>> Decompile() const;

  Combine combine() const { return combine_; }
  double base_score() const { return base_; }
  /// Per-tree leaf scale (GBT learning rate; 1 for DT/RF).
  double scale() const { return scale_; }
  size_t num_trees() const { return tree_counts_.size(); }
  size_t num_nodes() const { return child_.size(); }
  size_t num_leaves() const { return leaf_value_.size(); }
  /// Width of the bin space: max used feature index + 1.
  size_t num_features() const { return d_; }
  /// True when every feature has <= 255 cut points and codes are u8.
  bool narrow() const { return narrow_; }

  /// \name Compact serialization.
  /// The stream carries the edge tables, the SoA blocks (child i32 per
  /// node; feature + code for internal nodes only) and the leaf values.
  /// @{
  void Serialize(BinaryWriter* writer) const;
  static Result<CompiledEnsemble> Deserialize(BinaryReader* reader);
  size_t SerializedBytes() const;
  /// @}

 private:
  static Result<CompiledEnsemble> CompileTrees(
      const std::vector<const RegressionTree*>& trees, Combine combine,
      double base, double scale);

  template <typename Code>
  double PredictRowT(const double* x) const;
  template <typename Code>
  void PredictBlockT(const Code* codes, size_t begin, size_t end,
                     double* out) const;
  template <typename Code>
  double TraverseTree(size_t t, const Code* codes,
                      const Code* node_code) const;
  /// Lockstep core: predicts 8 consecutive rows (`codes` points at the
  /// first row's bin line; rows are `d_` apart) with 8 cursors advancing
  /// per tree. Accumulation is per-lane in tree order — bitwise equal to
  /// 8 scalar walks.
  template <typename Code>
  void PredictRowsLockstepT(const Code* codes, const Code* node_code,
                            double* out) const;

  Combine combine_ = Combine::kSingle;
  double base_ = 0.0;
  double scale_ = 1.0;
  uint32_t d_ = 0;
  bool narrow_ = true;
  /// Bin space: edges_[f] = sorted distinct thresholds over feature f.
  FeatureBinner binner_;
  std::vector<uint16_t> used_features_;  // features with >= 1 cut point

  // SoA node blocks. Tree t owns the contiguous index range
  // [tree_base_[t], tree_base_[t] + tree_counts_[t]), breadth-first with
  // the root first and siblings adjacent. child_[i] >= 0 is the left child
  // (right child = child_[i] + 1); child_[i] < 0 marks a leaf whose value
  // lives at leaf_value_[-(child_[i] + 1)]. feature/code are meaningful
  // for internal nodes only.
  std::vector<uint32_t> tree_counts_;
  std::vector<uint32_t> tree_base_;  // prefix sums of tree_counts_
  std::vector<uint16_t> node_feature_;
  std::vector<uint8_t> code8_;    // when narrow_
  std::vector<uint16_t> code16_;  // when !narrow_
  std::vector<int32_t> child_;
  std::vector<double> leaf_value_;
};

/// Byte size of `model` under the retained pointer-tree codec
/// (RegressionTree::Serialize: five 8-byte fields per node) for the tree
/// families, and the model's own codec otherwise — Fig. 8's
/// pointer-vs-compiled comparison column.
Result<size_t> PointerSerializedBytes(const Regressor& model);

}  // namespace wmp::ml

#endif  // WMP_ML_COMPILED_TREE_H_
