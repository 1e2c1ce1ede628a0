#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// Spans recorded by the benchmark around its calls into each layer's
/// public entry points; nothing inside the program is instrumented.
///
/// A span has a name, a request id, a start and an end (steady-clock ns),
/// and the span that caused it. A span's *self time* is its duration minus
/// the part of that interval its direct children cover, so nested spans
/// never count the same nanosecond twice. Spans stay in memory until the
/// run ends, then are written out as JSON lines.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Records a finished span; returns its id (for children to name).
  /// `name` must be a string literal (it is stored by pointer).
  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  /// Opens a span that ends at End(id); children may be added meanwhile.
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);

  /// Moves every span of `other` in, re-basing its ids.
  void Merge(SpanLog&& other);

  struct Totals {
    size_t count = 0;
    double total_ns = 0.0;  ///< summed durations
    double self_ns = 0.0;   ///< summed self times
    std::vector<double> durations_ns;
  };
  /// Per span name: count, summed duration, summed self time, durations.
  std::map<std::string, Totals> Summarize() const;

  size_t size() const { return spans_.size(); }
  wmp::Status WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Length of the union of `intervals` clipped to [lo, hi).
double CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                 int64_t lo, int64_t hi);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
