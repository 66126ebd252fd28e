#include "util/thread_pool.h"

#include <atomic>

namespace lakefuzz {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop();
    }
    // Two clock reads per task bound the instrumentation cost; tasks here
    // are coarse (a ParallelFor lane's whole loop over its items), so the
    // reads are noise next to the work they bracket.
    const uint64_t start = NowNs();
    queue_wait_ns_.fetch_add(start - item.enqueue_ns,
                             std::memory_order_relaxed);
    item.fn();
    busy_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
    tasks_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::ParallelForWithLane(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  // Dynamic scheduling with a shared index counter: work items can be very
  // uneven (FD component sizes are skewed), so static chunking is wasteful.
  std::atomic<size_t> next{0};
  std::vector<std::future<void>> futures;
  size_t lanes = std::min(n, workers_.size());
  futures.reserve(lanes);
  for (size_t lane = 0; lane < lanes; ++lane) {
    futures.push_back(Submit([&next, n, &fn, lane] {
      while (true) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(lane, i);
      }
    }));
  }
  for (auto& f : futures) f.get();
}

}  // namespace lakefuzz
