#ifndef WMP_UTIL_PARALLEL_H_
#define WMP_UTIL_PARALLEL_H_

/// \file parallel.h
/// Minimal data-parallel runtime for the batched inference path.
///
/// The library's hot loops (batch regression, template assignment, feature
/// scaling, label simulation) are embarrassingly parallel over rows. This
/// header provides the one primitive they all share — `ParallelFor` — backed
/// by a single lazily-created, process-wide worker pool so repeated batch
/// calls never pay thread startup costs.
///
/// Threading model
///  * Workers are spawned on the first parallel call and live for the
///    process lifetime (joined at static destruction).
///  * `ParallelFor` partitions `[0, n)` into contiguous chunks and invokes
///    `fn(begin, end)` on the calling thread plus the pool; it returns only
///    after every chunk finished, so callers may freely capture locals.
///  * Nested calls degrade to serial execution on the calling worker —
///    re-entrancy is safe, never deadlocks, and never oversubscribes.
///  * `fn` must not throw; callers writing to shared output buffers must
///    write only inside their `[begin, end)` slice (all library callers do).
///  * Zero-allocation serial fast path when `n` is small or one thread is
///    configured, so scalar call sites can use it unconditionally.

#include <cstddef>
#include <functional>

namespace wmp::util {

/// Number of hardware threads (>= 1 even when the runtime reports 0).
size_t HardwareThreads();

/// Sets the process-wide default worker count used when `ParallelFor` is
/// called with `num_threads == 0`. Pass 0 to restore "use all hardware
/// threads". Intended for session setup (engine::BatchScorerOptions) and the
/// bench thread sweeps; not meant to be raced against in-flight ParallelFor
/// calls.
void SetDefaultParallelism(int num_threads);

/// Resolved default worker count (>= 1).
size_t DefaultParallelism();

/// Runs `fn(begin, end)` over a disjoint partition of `[0, n)`.
///
/// \param n            total iteration count
/// \param grain        minimum chunk size; work is not split below it, and
///                     `n <= grain` runs serially on the caller
/// \param fn           range body; invoked concurrently on distinct ranges
/// \param num_threads  worker override for this call; 0 = the calling
///                     thread's ScopedParallelism override if active, else
///                     the process default
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn,
                 int num_threads = 0);

/// Grain for a ParallelFor over `n` items that hold `work` units between
/// them (queries in workloads, say): about `work_per_chunk` units per
/// chunk, and at least one item.
inline size_t GrainForWork(size_t n, size_t work, size_t work_per_chunk) {
  if (work == 0) return n > 0 ? n : 1;
  const size_t grain = (n * work_per_chunk + work - 1) / work;
  return grain > 0 ? grain : 1;
}

/// \brief Scopes a worker-count override to the calling thread.
///
/// While alive, ParallelFor calls issued from this thread (with
/// `num_threads == 0`) use `num_threads` workers. Thread-local, so
/// concurrent sessions on different threads cannot race each other's
/// budgets, and destruction restores the exact previous override
/// (including "none"). Passing 0 is a no-op scope.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int num_threads);
  ~ScopedParallelism();
  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  bool active_;
  int previous_ = 0;
};

/// True while the calling thread is a pool worker executing a ParallelFor
/// chunk (nested parallel calls serialize on this).
bool InParallelWorker();

}  // namespace wmp::util

#endif  // WMP_UTIL_PARALLEL_H_
