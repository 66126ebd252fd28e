// Fixed-size thread pool: a LakeEngine session's workers, shared by every
// parallel stage (FD index build, work items and subsumption, value
// matching, discovery sketches).
#ifndef LAKEFUZZ_UTIL_THREAD_POOL_H_
#define LAKEFUZZ_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lakefuzz {

/// Monotonically accumulating execution counters of a ThreadPool. All
/// fields only grow, so a caller brackets a work phase with two stats()
/// snapshots and subtracts to profile that phase. busy vs. queue-wait is
/// the core-starvation signal the bench artifacts record: on a box granted
/// fewer cores than the pool has workers, busy_ns stays near wall time
/// (not workers × wall time) no matter how much work is queued.
struct PoolStats {
  uint64_t tasks = 0;          ///< tasks dequeued and executed
  uint64_t busy_ns = 0;        ///< Σ task execution time across workers
  uint64_t queue_wait_ns = 0;  ///< Σ enqueue→dequeue latency across tasks

  PoolStats operator-(const PoolStats& other) const {
    return PoolStats{tasks - other.tasks, busy_ns - other.busy_ns,
                     queue_wait_ns - other.queue_wait_ns};
  }
};

/// A minimal work-queue thread pool.
///
/// Tasks are `std::function<void()>`; `Submit` returns a future for the task's
/// result. The destructor drains outstanding tasks before joining.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Nanosecond monotonic timestamp (the clock PoolStats accumulates in).
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Enqueues a callable; returns a future for its result.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push(Item{[task] { (*task)(); }, NowNs()});
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all finish.
  /// `fn` must be safe to invoke concurrently for distinct i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    ParallelForWithLane(n, [&fn](size_t, size_t i) { fn(i); });
  }

  /// Like ParallelFor, but passes fn(lane, i) where `lane` is a dense id in
  /// [0, min(n, num_threads())) identifying the executing work lane — at most
  /// one item runs per lane at a time, so lane-indexed scratch state needs no
  /// further synchronization.
  void ParallelForWithLane(size_t n,
                           const std::function<void(size_t, size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// Cumulative execution counters since construction (cheap: three relaxed
  /// atomic loads). Subtract two snapshots to profile a phase; when the pool
  /// is shared (a LakeEngine session pool serving concurrent requests) the
  /// delta covers everything the pool ran in between, not just the caller's
  /// tasks.
  PoolStats stats() const {
    PoolStats s;
    s.tasks = tasks_.load(std::memory_order_relaxed);
    s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
    s.queue_wait_ns = queue_wait_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Item {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<Item> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;

  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> queue_wait_ns_{0};
};

/// Runs fn(i) for i in [0, n): on `pool` when one is provided, inline
/// otherwise. The pool-or-serial dispatch shared by stages that take an
/// optional pool (FD index build, subsumption).
inline void MaybeParallelFor(ThreadPool* pool, size_t n,
                             const std::function<void(size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
  } else {
    pool->ParallelFor(n, fn);
  }
}

/// Lane-aware twin of MaybeParallelFor: fn(lane, i) with lane <
/// pool->num_threads(). Serial fallback runs every item on lane 0. FD
/// enumeration, its one user, keeps one scratch per lane this way and
/// reuses it without locks.
inline void MaybeParallelForWithLane(
    ThreadPool* pool, size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
  } else {
    pool->ParallelForWithLane(n, fn);
  }
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_UTIL_THREAD_POOL_H_
