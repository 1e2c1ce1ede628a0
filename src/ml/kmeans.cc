#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "ml/regressor.h"
#include "util/parallel.h"
#include "util/random.h"

namespace wmp::ml {

namespace {

// Rows per ParallelFor chunk in RunOnce's two row scans (the k-means++
// distance update and the Lloyd assignment). Each row's result is written to
// its own slot and every sum over rows runs serially afterwards, so the
// chunking never changes a bit. 256 splits a 3,000-row training log into
// twelve chunks; larger grains left cores idle on such logs.
constexpr size_t kRowGrain = 256;

// One full k-means++ init followed by Lloyd iterations.
// Returns (centroids, inertia).
std::pair<Matrix, double> RunOnce(const Matrix& x, int k, int max_iters,
                                  double tol, Rng* rng) {
  const size_t n = x.rows(), d = x.cols();
  const size_t kk = static_cast<size_t>(k);
  Matrix centroids(kk, d);

  // --- k-means++ seeding ---
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  size_t first = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  std::copy(x.RowPtr(first), x.RowPtr(first) + d, centroids.RowPtr(0));
  for (size_t c = 1; c < kk; ++c) {
    const double* prev = centroids.RowPtr(c - 1);
    util::ParallelFor(n, kRowGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        min_dist[i] =
            std::min(min_dist[i], SquaredDistance(x.RowPtr(i), prev, d));
      }
    });
    double total = 0.0;
    for (double v : min_dist) total += v;
    size_t chosen;
    if (total <= 0.0) {
      chosen = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
    } else {
      double r = rng->UniformDouble() * total;
      double acc = 0.0;
      chosen = n - 1;
      for (size_t i = 0; i < n; ++i) {
        acc += min_dist[i];
        if (r < acc) {
          chosen = i;
          break;
        }
      }
    }
    std::copy(x.RowPtr(chosen), x.RowPtr(chosen) + d, centroids.RowPtr(c));
  }

  // --- Lloyd iterations ---
  std::vector<int> labels(n, 0);
  std::vector<double> best(n, 0.0);
  double prev_inertia = std::numeric_limits<double>::max();
  double inertia = prev_inertia;
  for (int it = 0; it < max_iters; ++it) {
    // Labels from the serving assignment kernel, then each row's distance to
    // its label; the inertia sums those distances in row order.
    util::ParallelFor(n, kRowGrain, [&](size_t begin, size_t end) {
      NearestCentroids(x.RowPtr(begin), end - begin, centroids,
                       labels.data() + begin);
      for (size_t i = begin; i < end; ++i) {
        best[i] = SquaredDistance(
            x.RowPtr(i), centroids.RowPtr(static_cast<size_t>(labels[i])), d);
      }
    });
    inertia = 0.0;
    for (double v : best) inertia += v;
    // Recompute centroids.
    Matrix sums(kk, d);
    std::vector<size_t> counts(kk, 0);
    for (size_t i = 0; i < n; ++i) {
      double* srow = sums.RowPtr(static_cast<size_t>(labels[i]));
      const double* row = x.RowPtr(i);
      for (size_t j = 0; j < d; ++j) srow[j] += row[j];
      ++counts[static_cast<size_t>(labels[i])];
    }
    for (size_t c = 0; c < kk; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed on a random point to keep k live clusters.
        size_t p = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
        std::copy(x.RowPtr(p), x.RowPtr(p) + d, centroids.RowPtr(c));
        continue;
      }
      double* crow = centroids.RowPtr(c);
      const double* srow = sums.RowPtr(c);
      for (size_t j = 0; j < d; ++j) {
        crow[j] = srow[j] / static_cast<double>(counts[c]);
      }
    }
    if (prev_inertia - inertia <= tol * std::max(prev_inertia, 1e-12)) break;
    prev_inertia = inertia;
  }
  return {std::move(centroids), inertia};
}

}  // namespace

Status KMeans::Fit(const Matrix& x, const KMeansOptions& options) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("KMeans::Fit on empty matrix");
  }
  if (options.num_clusters < 1) {
    return Status::InvalidArgument("num_clusters must be >= 1, got " +
                                   std::to_string(options.num_clusters));
  }
  const int k =
      std::min<int>(options.num_clusters, static_cast<int>(x.rows()));
  Rng rng(options.seed);
  double best_inertia = std::numeric_limits<double>::max();
  Matrix best;
  const int restarts = std::max(options.n_init, 1);
  for (int r = 0; r < restarts; ++r) {
    auto [centroids, inertia] =
        RunOnce(x, k, options.max_iters, options.tol, &rng);
    if (inertia < best_inertia) {
      best_inertia = inertia;
      best = std::move(centroids);
    }
  }
  centroids_ = std::move(best);
  inertia_ = best_inertia;
  return Status::OK();
}

Result<int> KMeans::Assign(const std::vector<double>& row) const {
  if (!fitted()) return Status::FailedPrecondition("KMeans not fitted");
  if (row.size() != centroids_.cols()) {
    return Status::InvalidArgument("KMeans::Assign dimension mismatch");
  }
  double best = std::numeric_limits<double>::max();
  int best_c = 0;
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    const double dist =
        SquaredDistance(row.data(), centroids_.RowPtr(c), row.size());
    if (dist < best) {
      best = dist;
      best_c = static_cast<int>(c);
    }
  }
  return best_c;
}

Result<std::vector<int>> KMeans::AssignAll(const Matrix& x) const {
  if (!fitted()) return Status::FailedPrecondition("KMeans not fitted");
  if (x.cols() != centroids_.cols()) {
    return Status::InvalidArgument("KMeans::AssignAll dimension mismatch");
  }
  // Register-blocked nearest-centroid over contiguous rows (no per-row
  // copies), row blocks on the worker pool. Same per-pair arithmetic as
  // Assign, so labels agree exactly.
  std::vector<int> labels(x.rows());
  util::ParallelFor(x.rows(), 256, [&](size_t begin, size_t end) {
    NearestCentroids(x.RowPtr(begin), end - begin, centroids_,
                     labels.data() + begin);
  });
  return labels;
}

void KMeans::Serialize(BinaryWriter* writer) const {
  writer->WriteU32(serialize_tags::kKMeans);
  writer->WriteU64(centroids_.rows());
  writer->WriteU64(centroids_.cols());
  writer->WriteDoubleVec(centroids_.data());
  writer->WriteDouble(inertia_);
}

Result<KMeans> KMeans::Deserialize(BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != serialize_tags::kKMeans) {
    return Status::InvalidArgument("bad kmeans magic tag");
  }
  WMP_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
  WMP_ASSIGN_OR_RETURN(uint64_t cols, reader->ReadU64());
  WMP_ASSIGN_OR_RETURN(std::vector<double> data, reader->ReadDoubleVec());
  uint64_t cells = 0;
  if (__builtin_mul_overflow(rows, cols, &cells) || data.size() != cells) {
    return Status::InvalidArgument("kmeans stream corrupt");
  }
  KMeans km;
  km.centroids_ = Matrix(rows, cols, std::move(data));
  WMP_ASSIGN_OR_RETURN(km.inertia_, reader->ReadDouble());
  return km;
}

Result<std::vector<double>> KMeansElbowCurve(const Matrix& x,
                                             const std::vector<int>& ks,
                                             const KMeansOptions& base) {
  // Fits are independent (each seeds its own Rng from base.seed), so they
  // run concurrently, each into its own slot. Claiming the largest k first
  // keeps the longest fit from starting last.
  std::vector<size_t> order(ks.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return ks[a] > ks[b]; });
  std::vector<double> inertias(ks.size(), 0.0);
  std::vector<Status> statuses(ks.size());
  util::ParallelFor(order.size(), 1, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      const size_t i = order[j];
      KMeans km;
      KMeansOptions opt = base;
      opt.num_clusters = ks[i];
      statuses[i] = km.Fit(x, opt);
      inertias[i] = km.inertia();
    }
  });
  // The first failure in `ks` order, as a serial sweep would report it.
  for (const Status& st : statuses) WMP_RETURN_IF_ERROR(st);
  return inertias;
}

size_t PickElbow(const std::vector<double>& inertias) {
  if (inertias.size() < 3) return inertias.empty() ? 0 : inertias.size() - 1;
  // Max distance from the chord connecting the first and last points.
  const double x0 = 0.0, y0 = inertias.front();
  const double x1 = static_cast<double>(inertias.size() - 1);
  const double y1 = inertias.back();
  const double dx = x1 - x0, dy = y1 - y0;
  const double norm = std::sqrt(dx * dx + dy * dy);
  size_t best_i = 0;
  double best_d = -1.0;
  for (size_t i = 0; i < inertias.size(); ++i) {
    const double px = static_cast<double>(i) - x0;
    const double py = inertias[i] - y0;
    const double dist = norm > 0 ? std::fabs(dx * py - dy * px) / norm : 0.0;
    if (dist > best_d) {
      best_d = dist;
      best_i = i;
    }
  }
  return best_i;
}

}  // namespace wmp::ml
