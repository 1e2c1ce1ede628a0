#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wmp::util {

namespace {

thread_local bool t_in_worker = false;

// Shared state of one ParallelFor call. Heap-allocated and reference-counted
// so a pool worker that wakes up late can still touch it safely after the
// originating call returned (it just observes `next >= num_chunks` and
// becomes a no-op).
struct ParallelState {
  size_t n = 0;
  size_t chunk = 0;
  size_t num_chunks = 0;
  std::function<void(size_t, size_t)> fn;

  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
};

// Claims and runs chunks until the range is exhausted.
void DrainChunks(ParallelState& state) {
  const bool was_worker = t_in_worker;
  t_in_worker = true;
  for (;;) {
    const size_t c = state.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= state.num_chunks) break;
    const size_t begin = c * state.chunk;
    const size_t end = std::min(begin + state.chunk, state.n);
    state.fn(begin, end);
    if (state.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state.num_chunks) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.cv.notify_all();
    }
  }
  t_in_worker = was_worker;
}

// Process-wide worker pool. Workers are created on demand (never more than
// kMaxWorkers), block on a shared queue of ParallelState references, and are
// joined at static destruction.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool pool;
    return pool;
  }

  void Run(const std::shared_ptr<ParallelState>& state, size_t num_threads) {
    const size_t helpers =
        std::min(num_threads - 1, state->num_chunks > 0 ? state->num_chunks - 1
                                                        : size_t{0});
    if (helpers > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      EnsureWorkersLocked(helpers);
      for (size_t i = 0; i < helpers; ++i) pending_.push_back(state);
      cv_.notify_all();
    }
    // The caller always participates, so completion never depends on pool
    // capacity (including the hardware_concurrency() == 1 case).
    DrainChunks(*state);
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->num_chunks;
    });
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      cv_.notify_all();
    }
    for (std::thread& t : threads_) t.join();
  }

 private:
  static constexpr size_t kMaxWorkers = 255;

  WorkerPool() = default;

  void EnsureWorkersLocked(size_t want) {
    const size_t cap = std::min(want, kMaxWorkers);
    while (threads_.size() < cap) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    t_in_worker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;
      std::shared_ptr<ParallelState> state = std::move(pending_.front());
      pending_.pop_front();
      lock.unlock();
      DrainChunks(*state);
      state.reset();
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<ParallelState>> pending_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

std::atomic<int> g_default_threads{0};

// Per-thread override installed by ScopedParallelism; 0 = none.
thread_local int t_thread_override = 0;

}  // namespace

size_t HardwareThreads() {
  // Read once: hardware_concurrency() reads sysfs on every call (about
  // 3 us on a 4 vCPU Xeon), and every ParallelFor without a configured
  // default asks, even one that then runs serially.
  static const size_t hw = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? size_t{1} : static_cast<size_t>(n);
  }();
  return hw;
}

void SetDefaultParallelism(int num_threads) {
  g_default_threads.store(num_threads > 0 ? num_threads : 0,
                          std::memory_order_relaxed);
}

size_t DefaultParallelism() {
  const int configured = g_default_threads.load(std::memory_order_relaxed);
  return configured > 0 ? static_cast<size_t>(configured) : HardwareThreads();
}

bool InParallelWorker() { return t_in_worker; }

ScopedParallelism::ScopedParallelism(int num_threads)
    : active_(num_threads > 0) {
  if (active_) {
    previous_ = t_thread_override;
    t_thread_override = num_threads;
  }
}

ScopedParallelism::~ScopedParallelism() {
  if (active_) t_thread_override = previous_;
}

void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn,
                 int num_threads) {
  if (n == 0) return;
  if (num_threads <= 0) num_threads = t_thread_override;
  const size_t threads =
      num_threads > 0 ? static_cast<size_t>(num_threads) : DefaultParallelism();
  if (grain == 0) grain = 1;
  // Serial fast path: tiny inputs, single-thread config, or nested calls
  // (a worker running a chunk must not block on a second ParallelFor).
  if (threads <= 1 || n <= grain || t_in_worker) {
    fn(0, n);
    return;
  }
  auto state = std::make_shared<ParallelState>();
  state->n = n;
  // Aim for a few chunks per worker (dynamic claiming smooths imbalance)
  // without splitting below the caller's grain.
  const size_t target_chunks = threads * 4;
  state->chunk = std::max(grain, (n + target_chunks - 1) / target_chunks);
  state->num_chunks = (n + state->chunk - 1) / state->chunk;
  state->fn = fn;
  WorkerPool::Instance().Run(state, threads);
}

}  // namespace wmp::util
