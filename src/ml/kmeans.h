#ifndef WMP_ML_KMEANS_H_
#define WMP_ML_KMEANS_H_

/// \file kmeans.h
/// Lloyd's k-means with k-means++ initialization.
///
/// This is the paper's template learner (Algorithm 1): queries featurized
/// from their plans are clustered, and each cluster is a *query template*.
/// `inertia()` feeds the elbow method the paper uses to tune `k`.
///
/// Determinism: Fit and KMeansElbowCurve run on the util::ParallelFor worker
/// pool, and their results are the same bits at every thread count
/// (`--threads`, ScopedParallelism), one thread included. Parallel scans
/// write one slot per row (or per k), and every sum over rows (inertia,
/// k-means++ seeding total, centroid sums) runs serially in row order.

#include <cstdint>
#include <vector>

#include "ml/linalg.h"
#include "util/io.h"
#include "util/status.h"

namespace wmp::ml {

/// Configuration for KMeans::Fit.
struct KMeansOptions {
  int num_clusters = 8;     ///< k; must be >= 1.
  int max_iters = 100;      ///< Lloyd iteration cap.
  double tol = 1e-6;        ///< relative inertia improvement to keep going.
  int n_init = 3;           ///< restarts; best inertia wins (kmeans++ each).
  uint64_t seed = 42;       ///< RNG seed for init and restarts.
};

/// \brief k-means clustering model.
class KMeans {
 public:
  KMeans() = default;

  /// Clusters the rows of `x`. Returns InvalidArgument for empty input or
  /// `num_clusters < 1`. If there are fewer distinct rows than clusters,
  /// surplus centroids collapse onto existing points (still a valid fit).
  Status Fit(const Matrix& x, const KMeansOptions& options);

  /// Index of the nearest centroid for `row`. Requires a prior Fit().
  Result<int> Assign(const std::vector<double>& row) const;

  /// Nearest-centroid labels for every row of `x`. Operates on contiguous
  /// rows and runs row blocks on the worker pool; agrees with per-row
  /// Assign() exactly.
  Result<std::vector<int>> AssignAll(const Matrix& x) const;

  /// Sum of squared distances of training points to their centroid.
  double inertia() const { return inertia_; }

  /// Fitted centroids (k rows).
  const Matrix& centroids() const { return centroids_; }
  int num_clusters() const { return static_cast<int>(centroids_.rows()); }
  bool fitted() const { return centroids_.rows() > 0; }

  void Serialize(BinaryWriter* writer) const;
  static Result<KMeans> Deserialize(BinaryReader* reader);

 private:
  Matrix centroids_;
  double inertia_ = 0.0;
};

/// \brief Runs k-means for each k in `ks` and returns the inertias, the raw
/// material of an elbow plot.
///
/// The fits run concurrently on the worker pool, largest k first; each is
/// seeded from `base.seed` alone, so the curve equals fitting every k on its
/// own. A k above the row count clamps as in Fit. On failure returns the
/// first error in `ks` order.
Result<std::vector<double>> KMeansElbowCurve(const Matrix& x,
                                             const std::vector<int>& ks,
                                             const KMeansOptions& base);

/// \brief Picks the elbow from an inertia curve via the maximum-distance-to-
/// chord heuristic. Returns the index into `ks`.
size_t PickElbow(const std::vector<double>& inertias);

}  // namespace wmp::ml

#endif  // WMP_ML_KMEANS_H_
