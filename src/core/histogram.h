#ifndef WMP_CORE_HISTOGRAM_H_
#define WMP_CORE_HISTOGRAM_H_

/// \file histogram.h
/// Workload histograms (paper §II, def. "Workload Histogram"): the k-bin
/// count vector H = [c_1 ... c_k] recording how a workload's queries
/// distribute over the query templates. Sum of bins == workload size
/// (paper eq. 4/8).

#include <cstddef>
#include <vector>

#include "ml/linalg.h"
#include "util/status.h"

namespace wmp::core {

/// Queries per ParallelFor chunk in the serving path's per-flush loops
/// (workload fingerprints, the template-id memo keys, histogram rows).
/// Each query costs a few ns there, so a smaller chunk hands a worker less
/// work than the hand-off costs: one 64-workload frame of 10-query
/// workloads runs all three loops on the calling thread.
inline constexpr size_t kQueriesPerChunk = 2048;

/// \brief Counts template assignments into a k-bin histogram.
///
/// Fails if any id lies outside `[0, num_templates)`.
Result<std::vector<double>> BuildHistogram(const std::vector<int>& template_ids,
                                           int num_templates);

/// \brief Batched histogram construction (IN4 over many workloads at once).
///
/// `template_ids` holds the assignments of every query of every workload in
/// workload-major order; workload `w` owns the slice
/// `[offsets[w], offsets[w+1])`. Returns a `(offsets.size()-1) x
/// num_templates` count matrix with one histogram per row. Rows are filled
/// in parallel (each worker writes only its own rows). Fails if any id lies
/// outside `[0, num_templates)` or the offsets are not monotone and bounded
/// by `template_ids.size()`.
Result<ml::Matrix> BuildHistogramMatrix(const std::vector<int>& template_ids,
                                        const std::vector<size_t>& offsets,
                                        int num_templates);

/// \brief Cache-aware scatter variant of BuildHistogramMatrix.
///
/// Fills only the rows `row_map[w]` of the preallocated `*out` (zeroing
/// each before accumulating); rows not listed are left untouched. This is
/// the histogram-cache miss path: the serving layer copies cached
/// histograms into their rows directly and asks this function to compute
/// just the missed workloads, whose assignments arrive as the same
/// flattened `(template_ids, offsets)` layout BuildHistogramMatrix takes
/// (`offsets.size() - 1 == row_map.size()`). Target rows must be distinct —
/// they are filled concurrently. Fails without touching `*out` beyond
/// already-written rows if any id, offset, or target row is out of range
/// or duplicated.
Status BuildHistogramRows(const std::vector<int>& template_ids,
                          const std::vector<size_t>& offsets,
                          int num_templates,
                          const std::vector<size_t>& row_map, ml::Matrix* out);

/// Sum of all bins (== number of queries binned).
double HistogramMass(const std::vector<double>& histogram);

}  // namespace wmp::core

#endif  // WMP_CORE_HISTOGRAM_H_
