#include "core/histogram.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "util/parallel.h"
#include "util/strings.h"

namespace wmp::core {

Result<std::vector<double>> BuildHistogram(const std::vector<int>& template_ids,
                                           int num_templates) {
  if (num_templates < 1) {
    return Status::InvalidArgument("histogram needs >= 1 bin");
  }
  std::vector<double> h(static_cast<size_t>(num_templates), 0.0);
  for (int id : template_ids) {
    if (id < 0 || id >= num_templates) {
      return Status::OutOfRange(
          StrFormat("template id %d outside [0, %d)", id, num_templates));
    }
    h[static_cast<size_t>(id)] += 1.0;
  }
  return h;
}

namespace {

// Shared (ids, offsets) validation of the batched builders.
Status ValidateHistogramLayout(const std::vector<int>& template_ids,
                               const std::vector<size_t>& offsets,
                               int num_templates) {
  if (num_templates < 1) {
    return Status::InvalidArgument("histogram needs >= 1 bin");
  }
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != template_ids.size()) {
    return Status::InvalidArgument("histogram offsets do not cover the ids");
  }
  for (size_t w = 0; w + 1 < offsets.size(); ++w) {
    if (offsets[w] > offsets[w + 1]) {
      return Status::InvalidArgument("histogram offsets must be monotone");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ml::Matrix> BuildHistogramMatrix(const std::vector<int>& template_ids,
                                        const std::vector<size_t>& offsets,
                                        int num_templates) {
  WMP_RETURN_IF_ERROR(
      ValidateHistogramLayout(template_ids, offsets, num_templates));
  const size_t num_workloads = offsets.size() - 1;
  ml::Matrix h(num_workloads, static_cast<size_t>(num_templates));
  constexpr int kNoBadId = std::numeric_limits<int>::min();
  std::atomic<int> bad_id{kNoBadId};
  util::ParallelFor(num_workloads, 16, [&](size_t begin, size_t end) {
    for (size_t w = begin; w < end; ++w) {
      double* row = h.RowPtr(w);
      for (size_t q = offsets[w]; q < offsets[w + 1]; ++q) {
        const int id = template_ids[q];
        if (id < 0 || id >= num_templates) {
          bad_id.store(id, std::memory_order_relaxed);
          return;
        }
        row[static_cast<size_t>(id)] += 1.0;
      }
    }
  });
  if (const int id = bad_id.load(std::memory_order_relaxed); id != kNoBadId) {
    return Status::OutOfRange(
        StrFormat("template id %d outside [0, %d)", id, num_templates));
  }
  return h;
}

Status BuildHistogramRows(const std::vector<int>& template_ids,
                          const std::vector<size_t>& offsets,
                          int num_templates,
                          const std::vector<size_t>& row_map,
                          ml::Matrix* out) {
  WMP_RETURN_IF_ERROR(
      ValidateHistogramLayout(template_ids, offsets, num_templates));
  if (offsets.size() - 1 != row_map.size()) {
    return Status::InvalidArgument("row_map size != number of workloads");
  }
  if (out == nullptr || out->cols() != static_cast<size_t>(num_templates)) {
    return Status::InvalidArgument("output matrix has wrong width");
  }
  // Epoch-stamped duplicate check: the stamp array grows once to the
  // largest matrix seen and a bumped epoch invalidates every entry, so the
  // serving layer's per-flush calls do no per-call clearing or allocation
  // after warm-up.
  thread_local std::vector<uint32_t> seen_stamp;
  thread_local uint32_t seen_epoch = 0;
  if (seen_stamp.size() < out->rows()) seen_stamp.resize(out->rows(), 0);
  if (++seen_epoch == 0) {  // epoch wrapped: stamps are ambiguous, reset
    std::fill(seen_stamp.begin(), seen_stamp.end(), 0);
    seen_epoch = 1;
  }
  for (size_t r : row_map) {
    if (r >= out->rows()) {
      return Status::OutOfRange("row_map entry outside the output matrix");
    }
    // Rows are filled concurrently, so two workloads may not share one.
    if (seen_stamp[r] == seen_epoch) {
      return Status::InvalidArgument("row_map entries must be distinct");
    }
    seen_stamp[r] = seen_epoch;
  }
  constexpr int kNoBadId = std::numeric_limits<int>::min();
  std::atomic<int> bad_id{kNoBadId};
  const size_t grain = util::GrainForWork(row_map.size(), offsets.back(),
                                         kQueriesPerChunk);
  util::ParallelFor(row_map.size(), grain, [&](size_t begin, size_t end) {
    for (size_t w = begin; w < end; ++w) {
      double* row = out->RowPtr(row_map[w]);
      std::fill(row, row + out->cols(), 0.0);
      for (size_t q = offsets[w]; q < offsets[w + 1]; ++q) {
        const int id = template_ids[q];
        if (id < 0 || id >= num_templates) {
          bad_id.store(id, std::memory_order_relaxed);
          return;
        }
        row[static_cast<size_t>(id)] += 1.0;
      }
    }
  });
  if (const int id = bad_id.load(std::memory_order_relaxed); id != kNoBadId) {
    return Status::OutOfRange(
        StrFormat("template id %d outside [0, %d)", id, num_templates));
  }
  return Status::OK();
}

double HistogramMass(const std::vector<double>& histogram) {
  double mass = 0.0;
  for (double c : histogram) mass += c;
  return mass;
}

}  // namespace wmp::core
