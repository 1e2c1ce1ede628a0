#ifndef WMP_ML_KMEANS_H_
#define WMP_ML_KMEANS_H_

/// \file kmeans.h
/// Lloyd's k-means with k-means++ initialization.
///
/// This is the paper's template learner (Algorithm 1): queries featurized
/// from their plans are clustered, and each cluster is a *query template*.
/// `inertia()` feeds the elbow method the paper uses to tune `k`.
///
/// Bounded, exact Lloyd: each iteration skips the k-centroid scan for every
/// row whose nearest centroid provably cannot change (Hamerly 2010). A
/// row's exact distance to its own centroid is computed every iteration,
/// and the row skips when that distance is below half the gap from its
/// centroid to the nearest other one, or below a per-row lower bound on
/// every other centroid's distance (the runner-up distance of its last full
/// scan, minus the largest centroid move since). Every bound is rounded
/// toward its safe side by an allowance above its rounding error, so a
/// skipped row keeps the label a full NearestCentroids scan would give,
/// ties (to the lowest index) included; kmeans.cc writes the argument out.
/// On the scaled plan features of 3,000- to 20,000-query logs the Lloyd
/// iterations evaluate 10-26% of a full scan's distances.
///
/// Determinism: Fit and KMeansElbowCurve return the same bits as a full
/// scan every iteration, and the same bits at every thread count
/// (`--threads`, ScopedParallelism), one thread included. They run on the
/// util::ParallelFor worker pool; parallel scans write one slot per row (or
/// per k), and every sum over rows (inertia, k-means++ seeding total,
/// centroid sums) runs serially in row order.

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

  /// Clusters the rows of `x`. Returns InvalidArgument for empty input,
  /// `num_clusters < 1`, or when no restart reaches a finite inertia (a NaN
  /// in `x`, or squared distances that overflow a double); the object is
  /// then left as it was. If there are fewer distinct rows than clusters,
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
