#include "assignment/parallel_cost.h"

#include <algorithm>
#include <thread>

namespace lakefuzz {
namespace {

/// Target blocks per worker for dynamic load balancing.
constexpr size_t kBlocksPerWorker = 4;

/// Splits [0, n) into roughly equal contiguous blocks and runs `body(lo, hi)`
/// for each across the pool. Each block is claimed by exactly one worker.
void BlockedFor(size_t n, ThreadPool* pool,
                const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2) {
    body(0, n);
    return;
  }
  size_t num_blocks =
      std::min(n, pool->num_threads() * kBlocksPerWorker);
  size_t block = (n + num_blocks - 1) / num_blocks;
  size_t actual_blocks = (n + block - 1) / block;
  pool->ParallelFor(actual_blocks, [&](size_t b) {
    size_t lo = b * block;
    size_t hi = std::min(n, lo + block);
    body(lo, hi);
  });
}

}  // namespace

bool WorthParallelizing(size_t work_items) {
  return work_items >= kMinParallelWork;
}

size_t ResolveNumThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void FillCostMatrixParallel(CostMatrix* cost, const RowRangeCostFn& fn,
                            ThreadPool* pool) {
  const size_t rows = cost->rows();
  const size_t cols = cost->cols();
  if (rows == 0 || cols == 0) return;
  if (!WorthParallelizing(rows * cols)) pool = nullptr;
  // Block by rows: a row block is a contiguous slice of the row-major
  // backing array, so each worker streams through its own write range.
  BlockedFor(rows, pool,
             [&](size_t lo, size_t hi) { fn(lo, hi, cost->row(lo)); });
}

void ScoreEdgesParallel(std::vector<SparseEdge>* edges, const PairCostFn& fn,
                        ThreadPool* pool) {
  if (!WorthParallelizing(edges->size())) pool = nullptr;
  BlockedFor(edges->size(), pool, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      SparseEdge& e = (*edges)[i];
      e.cost = fn(e.row, e.col);
    }
  });
}

void ParallelIndexFor(size_t n, const std::function<void(size_t)>& fn,
                      ThreadPool* pool) {
  // Embedding calls are heavyweight; parallelize even short ranges.
  if (n < 2) pool = nullptr;
  BlockedFor(n, pool, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace lakefuzz
