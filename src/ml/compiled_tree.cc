#include "ml/compiled_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "util/parallel.h"

namespace wmp::ml {

namespace {

constexpr uint32_t kCompiledEnsembleTag = 0x574D5043;  // "WMPC"
constexpr uint8_t kCompiledEnsembleVersion = 1;

// Hard bounds keeping every index representable: global node indices and
// leaf references fit i32, feature indices fit u16, codes fit u16.
constexpr size_t kMaxNodes = (size_t{1} << 31) - 2;
constexpr size_t kMaxFeatures = 65536;
constexpr size_t kMaxEdgesPerFeature = 65535;

// Rows one lockstep block walks per tree. BENCH_traverse.json measured
// 8-row blocks at 1.7-3.3x the scalar walk on RF/GBT at batch >= 100, ahead
// of 4-row blocks and of an AVX2 gather variant.
constexpr int kLockstepRows = 8;

}  // namespace

Result<CompiledEnsemble> CompiledEnsemble::CompileTrees(
    const std::vector<const RegressionTree*>& trees, Combine combine,
    double base, double scale) {
  if (trees.empty()) {
    return Status::FailedPrecondition("compile of an empty ensemble");
  }
  // Pass 1: the bin space. Collect the distinct thresholds every feature is
  // ever split on; their sorted order is the edge table, and each node's
  // double threshold becomes its exact index in that table. Built from the
  // ensemble itself, so deserialized models compile without the trainer's
  // FeatureBinner.
  size_t d = 0;
  size_t total_nodes = 0;
  for (const RegressionTree* tree : trees) {
    if (!tree->fitted()) {
      return Status::FailedPrecondition("compile of an unfitted tree");
    }
    total_nodes += tree->nodes().size();
    for (const TreeNode& nd : tree->nodes()) {
      if (nd.feature >= 0) {
        d = std::max(d, static_cast<size_t>(nd.feature) + 1);
      }
    }
  }
  if (total_nodes > kMaxNodes) {
    return Status::InvalidArgument("ensemble too large to compile");
  }
  if (d > kMaxFeatures) {
    return Status::InvalidArgument("feature index exceeds compiled range");
  }
  std::vector<std::vector<double>> edges(d);
  for (const RegressionTree* tree : trees) {
    for (const TreeNode& nd : tree->nodes()) {
      if (nd.feature >= 0) {
        edges[static_cast<size_t>(nd.feature)].push_back(nd.threshold);
      }
    }
  }
  size_t widest = 0;
  for (std::vector<double>& e : edges) {
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
    if (e.size() > kMaxEdgesPerFeature) {
      return Status::InvalidArgument("too many distinct thresholds");
    }
    widest = std::max(widest, e.size());
  }

  CompiledEnsemble c;
  c.combine_ = combine;
  c.base_ = base;
  c.scale_ = scale;
  c.d_ = static_cast<uint32_t>(d);
  c.narrow_ = widest <= 255;
  c.binner_ = FeatureBinner::FromEdges(std::move(edges));
  for (size_t f = 0; f < d; ++f) {
    if (c.binner_.NumBins(f) > 1) {
      c.used_features_.push_back(static_cast<uint16_t>(f));
    }
  }

  // Pass 2: BFS-flatten each tree. Processing nodes in discovery order
  // while appending both children together puts the root first and
  // siblings adjacent, so one i32 left-child offset encodes the pair.
  c.tree_counts_.reserve(trees.size());
  c.tree_base_.reserve(trees.size());
  c.node_feature_.reserve(total_nodes);
  c.child_.reserve(total_nodes);
  if (c.narrow_) {
    c.code8_.reserve(total_nodes);
  } else {
    c.code16_.reserve(total_nodes);
  }
  std::vector<int> order;  // original node ids, BFS
  for (const RegressionTree* tree : trees) {
    const std::vector<TreeNode>& nodes = tree->nodes();
    const size_t base = c.child_.size();
    c.tree_base_.push_back(static_cast<uint32_t>(base));
    order.clear();
    order.push_back(0);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (order.size() > nodes.size()) {
        return Status::InvalidArgument("malformed tree: shared subtrees");
      }
      const TreeNode& nd = nodes[static_cast<size_t>(order[pos])];
      if (nd.feature < 0) {
        c.child_.push_back(
            -static_cast<int32_t>(c.leaf_value_.size()) - 1);
        c.leaf_value_.push_back(nd.value);
        c.node_feature_.push_back(0);
        if (c.narrow_) {
          c.code8_.push_back(0);
        } else {
          c.code16_.push_back(0);
        }
        continue;
      }
      if (nd.left < 0 || nd.right < 0 ||
          static_cast<size_t>(nd.left) >= nodes.size() ||
          static_cast<size_t>(nd.right) >= nodes.size()) {
        return Status::InvalidArgument("malformed tree: bad child index");
      }
      const size_t f = static_cast<size_t>(nd.feature);
      const uint16_t code = c.binner_.BinValue(f, nd.threshold);
      if (c.binner_.UpperEdge(f, code) != nd.threshold) {
        return Status::Internal("threshold lost its edge-table index");
      }
      c.child_.push_back(static_cast<int32_t>(base + order.size()));
      order.push_back(nd.left);
      order.push_back(nd.right);
      c.node_feature_.push_back(static_cast<uint16_t>(f));
      if (c.narrow_) {
        c.code8_.push_back(static_cast<uint8_t>(code));
      } else {
        c.code16_.push_back(code);
      }
    }
    c.tree_counts_.push_back(static_cast<uint32_t>(c.child_.size() - base));
  }
#ifndef NDEBUG
  // Predict()'s reusable bin scratch only writes used_features_ columns and
  // never re-zeroes the rest, so no node may reference an unbinned feature
  // (each internal node's own threshold is an edge of its feature, making
  // this true by construction — the assert guards future layout changes).
  for (size_t i = 0; i < c.child_.size(); ++i) {
    assert(c.child_[i] < 0 || c.binner_.NumBins(c.node_feature_[i]) > 1);
  }
#endif
  return c;
}

Result<CompiledEnsemble> CompiledEnsemble::Compile(
    const DecisionTreeRegressor& model) {
  return CompileTrees({&model.tree()}, Combine::kSingle, 0.0, 1.0);
}

Result<CompiledEnsemble> CompiledEnsemble::Compile(
    const RandomForestRegressor& model) {
  std::vector<const RegressionTree*> trees;
  trees.reserve(model.trees().size());
  for (const RegressionTree& t : model.trees()) trees.push_back(&t);
  return CompileTrees(trees, Combine::kAverage, 0.0, 1.0);
}

Result<CompiledEnsemble> CompiledEnsemble::Compile(const GbtRegressor& model) {
  std::vector<const RegressionTree*> trees;
  trees.reserve(model.trees().size());
  for (const RegressionTree& t : model.trees()) trees.push_back(&t);
  return CompileTrees(trees, Combine::kBoosted, model.base_score(),
                      model.options().learning_rate);
}

Result<CompiledEnsemble> CompiledEnsemble::CompileRegressor(
    const Regressor& model) {
  if (const auto* dt = dynamic_cast<const DecisionTreeRegressor*>(&model)) {
    return Compile(*dt);
  }
  if (const auto* rf = dynamic_cast<const RandomForestRegressor*>(&model)) {
    return Compile(*rf);
  }
  if (const auto* gbt = dynamic_cast<const GbtRegressor*>(&model)) {
    return Compile(*gbt);
  }
  return Status::FailedPrecondition("not a tree-family regressor");
}

template <typename Code>
double CompiledEnsemble::TraverseTree(size_t t, const Code* codes,
                                      const Code* node_code) const {
  uint32_t i = tree_base_[t];
  int32_t ch;
  while ((ch = child_[i]) >= 0) {
    // Siblings are adjacent: +0 goes left (code <= threshold code), +1
    // goes right. One integer compare, no float math, no second pointer.
    i = static_cast<uint32_t>(ch) +
        (codes[node_feature_[i]] > node_code[i] ? 1u : 0u);
  }
  return leaf_value_[static_cast<size_t>(-(ch + 1))];
}

template <typename Code>
void CompiledEnsemble::PredictRowsLockstepT(const Code* codes,
                                            const Code* node_code,
                                            double* out) const {
  constexpr int R = kLockstepRows;
  const size_t num_trees = tree_counts_.size();
  const size_t d = d_;
  // Per-lane accumulators: lane r is row r of the block, and its updates
  // run in tree order exactly like the scalar walk — DT takes the lone
  // leaf, RF sums then divides once, GBT starts at base and adds
  // scale * leaf per round. Lanes never mix, so every lane is bitwise the
  // scalar result.
  double acc[R];
  const double init = combine_ == Combine::kBoosted ? base_ : 0.0;
  for (int r = 0; r < R; ++r) acc[r] = init;
  uint32_t idx[R];
  int32_t ch[R];
  for (size_t t = 0; t < num_trees; ++t) {
    for (int r = 0; r < R; ++r) idx[r] = tree_base_[t];
    for (int r = 0; r < R; ++r) ch[r] = child_[idx[r]];
    for (;;) {
      bool any_active = false;
      for (int r = 0; r < R; ++r) any_active |= ch[r] >= 0;
      if (!any_active) break;
      for (int r = 0; r < R; ++r) {
        // A lane that reached its leaf parks there: the select keeps its
        // idx, so it re-loads the same (negative) child until every lane
        // parks. The step it computes meanwhile reads the leaf's zeroed
        // feature/code slots — initialized memory, result discarded. The
        // R dependent-load chains of the active lanes overlap in flight
        // instead of serializing on memory latency.
        const uint32_t step =
            static_cast<uint32_t>(ch[r]) +
            (codes[static_cast<size_t>(r) * d + node_feature_[idx[r]]] >
                     node_code[idx[r]]
                 ? 1u
                 : 0u);
        idx[r] = ch[r] >= 0 ? step : idx[r];
      }
      for (int r = 0; r < R; ++r) ch[r] = child_[idx[r]];
    }
    if (combine_ == Combine::kBoosted) {
      for (int r = 0; r < R; ++r) {
        acc[r] += scale_ * leaf_value_[static_cast<size_t>(-(ch[r] + 1))];
      }
    } else {
      for (int r = 0; r < R; ++r) {
        acc[r] += leaf_value_[static_cast<size_t>(-(ch[r] + 1))];
      }
    }
  }
  if (combine_ == Combine::kAverage) {
    for (int r = 0; r < R; ++r) acc[r] /= static_cast<double>(num_trees);
  }
  for (int r = 0; r < R; ++r) out[r] = acc[r];
}

template <typename Code>
void CompiledEnsemble::PredictBlockT(const Code* codes, size_t begin,
                                     size_t end, double* out) const {
  const Code* node_code;
  if constexpr (std::is_same_v<Code, uint8_t>) {
    node_code = code8_.data();
  } else {
    node_code = code16_.data();
  }
  // Full 8-row blocks walk in lockstep; the ragged tail (and a single
  // row) walks one row at a time — bitwise the same.
  size_t i = begin;
  for (; i + kLockstepRows <= end; i += kLockstepRows) {
    PredictRowsLockstepT<Code>(codes + i * d_, node_code, out + i);
  }
  const size_t num_trees = tree_counts_.size();
  for (; i < end; ++i) {
    const Code* rc = codes + i * d_;
    // Accumulation mirrors the reference family loops exactly: DT takes
    // the lone leaf, RF sums in tree order then divides once, GBT starts
    // at the base score and adds scale * leaf per round.
    double acc;
    if (combine_ == Combine::kBoosted) {
      acc = base_;
      for (size_t t = 0; t < num_trees; ++t) {
        acc += scale_ * TraverseTree(t, rc, node_code);
      }
    } else {
      acc = 0.0;
      for (size_t t = 0; t < num_trees; ++t) {
        acc += TraverseTree(t, rc, node_code);
      }
      if (combine_ == Combine::kAverage) {
        acc /= static_cast<double>(num_trees);
      }
    }
    out[i] = acc;
  }
}

template <typename Code>
double CompiledEnsemble::PredictRowT(const double* x) const {
  thread_local std::vector<Code> codes;
  if (codes.size() < d_) codes.resize(d_);
  for (uint16_t f : used_features_) {
    codes[f] = static_cast<Code>(binner_.BinValue(f, x[f]));
  }
  double out;
  PredictBlockT<Code>(codes.data(), 0, 1, &out);
  return out;
}

double CompiledEnsemble::PredictRow(const double* x, size_t /*n*/) const {
  return narrow_ ? PredictRowT<uint8_t>(x) : PredictRowT<uint16_t>(x);
}

Result<double> CompiledEnsemble::PredictOne(const std::vector<double>& x) const {
  if (tree_counts_.empty()) {
    return Status::FailedPrecondition("ensemble not compiled");
  }
  if (x.size() < d_) {
    return Status::InvalidArgument("row narrower than the compiled ensemble");
  }
  return PredictRow(x.data(), x.size());
}

Result<std::vector<double>> CompiledEnsemble::Predict(const Matrix& x) const {
  if (tree_counts_.empty()) {
    return Status::FailedPrecondition("ensemble not compiled");
  }
  if (x.cols() < d_) {
    return Status::InvalidArgument("matrix narrower than the compiled ensemble");
  }
  const size_t n = x.rows();
  std::vector<double> out(n);
  if (n == 0) return out;
  // Bin once per used feature — strided multi-probe searches down each
  // column — then traverse row blocks on the worker pool with the same
  // grain as the reference batch Predict. The bin lines live in a grow-only
  // per-thread scratch instead of a fresh zero-initialized n*d_ buffer per
  // call: only used_features_ columns are ever written, and traversal only
  // reads features some node references, which Compile asserts are all
  // binned — so stale bytes from earlier calls are never consumed (parked
  // lockstep lanes may *load* a stale slot, but discard the comparison).
  // resize() value-initializes growth, keeping every byte below size()
  // defined.
  const size_t needed = n * static_cast<size_t>(d_);
  if (narrow_) {
    thread_local std::vector<uint8_t> scratch;
    if (scratch.size() < needed) scratch.resize(needed);
    uint8_t* codes = scratch.data();
    for (uint16_t f : used_features_) {
      binner_.BinColumn(f, x.data().data() + f, n, x.cols(), codes + f, d_);
    }
    util::ParallelFor(n, kTreePredictGrain, [&](size_t begin, size_t end) {
      PredictBlockT<uint8_t>(codes, begin, end, out.data());
    });
  } else {
    thread_local std::vector<uint16_t> scratch;
    if (scratch.size() < needed) scratch.resize(needed);
    uint16_t* codes = scratch.data();
    for (uint16_t f : used_features_) {
      binner_.BinColumn(f, x.data().data() + f, n, x.cols(), codes + f, d_);
    }
    util::ParallelFor(n, kTreePredictGrain, [&](size_t begin, size_t end) {
      PredictBlockT<uint16_t>(codes, begin, end, out.data());
    });
  }
  return out;
}

Result<std::vector<RegressionTree>> CompiledEnsemble::Decompile() const {
  std::vector<RegressionTree> trees;
  trees.reserve(tree_counts_.size());
  for (size_t t = 0; t < tree_counts_.size(); ++t) {
    const size_t base = tree_base_[t];
    const size_t count = tree_counts_[t];
    std::vector<TreeNode> nodes(count);
    for (size_t i = 0; i < count; ++i) {
      const size_t g = base + i;
      TreeNode& nd = nodes[i];
      const int32_t ch = child_[g];
      if (ch < 0) {
        nd.value = leaf_value_[static_cast<size_t>(-(ch + 1))];
        continue;
      }
      const size_t local = static_cast<size_t>(ch) - base;
      if (static_cast<size_t>(ch) < base || local + 1 >= count) {
        return Status::Internal("compiled child outside its tree block");
      }
      nd.feature = node_feature_[g];
      const uint32_t code = narrow_ ? code8_[g] : code16_[g];
      nd.threshold = binner_.UpperEdge(static_cast<size_t>(nd.feature), code);
      nd.left = static_cast<int>(local);
      nd.right = static_cast<int>(local) + 1;
    }
    trees.push_back(RegressionTree::FromNodes(std::move(nodes)));
  }
  return trees;
}

void CompiledEnsemble::Serialize(BinaryWriter* writer) const {
  writer->WriteU32(kCompiledEnsembleTag);
  writer->WriteU8(kCompiledEnsembleVersion);
  writer->WriteU8(static_cast<uint8_t>(combine_));
  writer->WriteU8(narrow_ ? 1 : 0);
  writer->WriteDouble(base_);
  writer->WriteDouble(scale_);
  writer->WriteU32(d_);
  writer->WriteU32(static_cast<uint32_t>(tree_counts_.size()));
  for (uint32_t count : tree_counts_) writer->WriteU32(count);
  for (size_t f = 0; f < d_; ++f) {
    const size_t ne = binner_.NumBins(f) - 1;
    writer->WriteU32(static_cast<uint32_t>(ne));
    for (size_t e = 0; e < ne; ++e) {
      writer->WriteDouble(binner_.UpperEdge(f, e));
    }
  }
  writer->WriteU64(child_.size());
  writer->WriteU64(leaf_value_.size());
  for (int32_t ch : child_) writer->WriteU32(static_cast<uint32_t>(ch));
  for (size_t i = 0; i < child_.size(); ++i) {
    if (child_[i] < 0) continue;  // leaves carry no test
    writer->WriteU16(node_feature_[i]);
    if (narrow_) {
      writer->WriteU8(code8_[i]);
    } else {
      writer->WriteU16(code16_[i]);
    }
  }
  for (double v : leaf_value_) writer->WriteDouble(v);
}

size_t CompiledEnsemble::SerializedBytes() const {
  BinaryWriter writer;
  Serialize(&writer);
  return writer.size();
}

Result<CompiledEnsemble> CompiledEnsemble::Deserialize(BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != kCompiledEnsembleTag) {
    return Status::InvalidArgument("bad compiled-ensemble magic tag");
  }
  WMP_ASSIGN_OR_RETURN(uint8_t version, reader->ReadU8());
  if (version != kCompiledEnsembleVersion) {
    return Status::InvalidArgument("unsupported compiled-ensemble version");
  }
  CompiledEnsemble c;
  WMP_ASSIGN_OR_RETURN(uint8_t combine, reader->ReadU8());
  if (combine > static_cast<uint8_t>(Combine::kBoosted)) {
    return Status::InvalidArgument("bad combine mode");
  }
  c.combine_ = static_cast<Combine>(combine);
  WMP_ASSIGN_OR_RETURN(uint8_t narrow, reader->ReadU8());
  c.narrow_ = narrow != 0;
  WMP_ASSIGN_OR_RETURN(c.base_, reader->ReadDouble());
  WMP_ASSIGN_OR_RETURN(c.scale_, reader->ReadDouble());
  WMP_ASSIGN_OR_RETURN(c.d_, reader->ReadU32());
  if (c.d_ > kMaxFeatures) {
    return Status::InvalidArgument("compiled feature count out of range");
  }
  WMP_ASSIGN_OR_RETURN(uint32_t num_trees, reader->ReadU32());
  if (num_trees == 0 ||
      static_cast<size_t>(num_trees) * 4 > reader->remaining()) {
    return Status::InvalidArgument("compiled tree count out of range");
  }
  c.tree_counts_.resize(num_trees);
  c.tree_base_.resize(num_trees);
  uint64_t running = 0;
  for (uint32_t t = 0; t < num_trees; ++t) {
    WMP_ASSIGN_OR_RETURN(c.tree_counts_[t], reader->ReadU32());
    if (c.tree_counts_[t] == 0) {
      return Status::InvalidArgument("compiled tree with no nodes");
    }
    c.tree_base_[t] = static_cast<uint32_t>(running);
    running += c.tree_counts_[t];
  }
  std::vector<std::vector<double>> edges(c.d_);
  size_t widest = 0;
  for (uint32_t f = 0; f < c.d_; ++f) {
    WMP_ASSIGN_OR_RETURN(uint32_t ne, reader->ReadU32());
    if (ne > kMaxEdgesPerFeature ||
        static_cast<size_t>(ne) * sizeof(double) > reader->remaining()) {
      return Status::InvalidArgument("compiled edge table out of range");
    }
    edges[f].resize(ne);
    for (uint32_t e = 0; e < ne; ++e) {
      WMP_ASSIGN_OR_RETURN(edges[f][e], reader->ReadDouble());
      // NaN compares false both ways, so it needs the explicit check at
      // entry 0 and the !(cur > prev) form after it: the bin-space walk is
      // bitwise the raw-space walk only over a strictly increasing table.
      if (std::isnan(edges[f][e]) ||
          (e > 0 && !(edges[f][e] > edges[f][e - 1]))) {
        return Status::InvalidArgument("compiled edges not increasing");
      }
    }
    widest = std::max(widest, edges[f].size());
  }
  if (c.narrow_ != (widest <= 255)) {
    return Status::InvalidArgument("compiled code width mismatch");
  }
  WMP_ASSIGN_OR_RETURN(uint64_t total_nodes, reader->ReadU64());
  WMP_ASSIGN_OR_RETURN(uint64_t num_leaves, reader->ReadU64());
  if (total_nodes != running || total_nodes > kMaxNodes ||
      total_nodes * 4 > reader->remaining() || num_leaves > total_nodes) {
    return Status::InvalidArgument("compiled node counts out of range");
  }
  c.binner_ = FeatureBinner::FromEdges(std::move(edges));
  for (uint32_t f = 0; f < c.d_; ++f) {
    if (c.binner_.NumBins(f) > 1) c.used_features_.push_back(
        static_cast<uint16_t>(f));
  }
  c.child_.resize(total_nodes);
  for (uint64_t i = 0; i < total_nodes; ++i) {
    WMP_ASSIGN_OR_RETURN(uint32_t raw, reader->ReadU32());
    c.child_[i] = static_cast<int32_t>(raw);
  }
  // Validate the block structure: every internal child lands strictly
  // later inside its own tree block (guarantees traversal terminates),
  // every leaf reference is in range.
  {
    size_t t = 0;
    for (size_t i = 0; i < total_nodes; ++i) {
      while (t + 1 < c.tree_base_.size() && i >= c.tree_base_[t + 1]) ++t;
      const int32_t ch = c.child_[i];
      if (ch < 0) {
        if (static_cast<size_t>(-(ch + 1)) >= num_leaves) {
          return Status::InvalidArgument("compiled leaf index out of range");
        }
      } else {
        const size_t tree_end = c.tree_base_[t] + c.tree_counts_[t];
        if (static_cast<size_t>(ch) <= i ||
            static_cast<size_t>(ch) + 1 >= tree_end) {
          return Status::InvalidArgument("compiled child index out of range");
        }
      }
    }
  }
  c.node_feature_.assign(total_nodes, 0);
  if (c.narrow_) {
    c.code8_.assign(total_nodes, 0);
  } else {
    c.code16_.assign(total_nodes, 0);
  }
  for (uint64_t i = 0; i < total_nodes; ++i) {
    if (c.child_[i] < 0) continue;
    WMP_ASSIGN_OR_RETURN(uint16_t f, reader->ReadU16());
    if (f >= c.d_) {
      return Status::InvalidArgument("compiled feature index out of range");
    }
    c.node_feature_[i] = f;
    uint32_t code;
    if (c.narrow_) {
      WMP_ASSIGN_OR_RETURN(uint8_t c8, reader->ReadU8());
      code = c8;
      c.code8_[i] = c8;
    } else {
      WMP_ASSIGN_OR_RETURN(uint16_t c16, reader->ReadU16());
      code = c16;
      c.code16_[i] = c16;
    }
    if (code + 1 >= c.binner_.NumBins(f)) {
      return Status::InvalidArgument("compiled threshold code out of range");
    }
  }
  c.leaf_value_.resize(num_leaves);
  for (uint64_t i = 0; i < num_leaves; ++i) {
    WMP_ASSIGN_OR_RETURN(c.leaf_value_[i], reader->ReadDouble());
  }
  return c;
}

Result<size_t> PointerSerializedBytes(const Regressor& model) {
  BinaryWriter writer;
  if (const auto* dt = dynamic_cast<const DecisionTreeRegressor*>(&model)) {
    if (!dt->tree().fitted()) {
      return Status::FailedPrecondition("DT not fitted");
    }
    writer.WriteU32(serialize_tags::kDecisionTree);
    dt->tree().Serialize(&writer);
    return writer.size();
  }
  if (const auto* rf = dynamic_cast<const RandomForestRegressor*>(&model)) {
    if (rf->trees().empty()) return Status::FailedPrecondition("RF not fitted");
    writer.WriteU32(serialize_tags::kRandomForest);
    writer.WriteU64(rf->trees().size());
    for (const RegressionTree& t : rf->trees()) t.Serialize(&writer);
    return writer.size();
  }
  if (const auto* gbt = dynamic_cast<const GbtRegressor*>(&model)) {
    if (gbt->trees().empty()) {
      return Status::FailedPrecondition("GBT not fitted");
    }
    writer.WriteU32(serialize_tags::kGbt);
    writer.WriteDouble(gbt->options().learning_rate);
    writer.WriteDouble(gbt->base_score());
    writer.WriteU64(gbt->trees().size());
    for (const RegressionTree& t : gbt->trees()) t.Serialize(&writer);
    return writer.size();
  }
  return model.SerializedSize();
}

}  // namespace wmp::ml
