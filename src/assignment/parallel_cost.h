// Parallel, cache-aware construction of assignment inputs.
//
// Cost-matrix construction is the value matcher's hot path: every residual
// group×value pair costs an embedding dot product or a string distance.
// Every cell depends only on its own (row, col), so the fill is row-blocked
// across a ThreadPool and each block is handed to the caller as one row
// range:
//
//   * the CostMatrix is row-major, so a contiguous row block is a contiguous
//     write range — workers never share a cache line except at block seams;
//   * a row range lets the caller fill several cells at once: embedding
//     mode runs CosineDistanceBlock (embedding/vector_ops.h) over the whole
//     range, string mode a per-cell loop;
//   * blocks are oversubscribed (several per worker) and claimed dynamically,
//     absorbing skew from variable-length strings;
//   * output is deterministic regardless of thread count: each cell's value
//     must be a pure function of (row, col), whatever range it falls in, and
//     every cell is computed exactly once into its own slot.
//
// The same blocking applies to sparse candidate-edge scoring (contiguous
// index ranges of the edge array), one PairCostFn call per edge.
#ifndef LAKEFUZZ_ASSIGNMENT_PARALLEL_COST_H_
#define LAKEFUZZ_ASSIGNMENT_PARALLEL_COST_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "assignment/cost_matrix.h"
#include "assignment/thresholded.h"
#include "util/thread_pool.h"

namespace lakefuzz {

/// Pure pairwise cost: must return the same value for the same (row, col)
/// on every invocation, and be safe to call concurrently.
using PairCostFn = std::function<double(size_t row, size_t col)>;

/// Fills rows [row_lo, row_hi) of a row-major cost matrix with C columns:
/// cell (r, c) is out[(r - row_lo) * C + c]. Must write every cell of the
/// range, give each cell the same value in any range, and be safe to call
/// concurrently on disjoint ranges.
using RowRangeCostFn =
    std::function<void(size_t row_lo, size_t row_hi, double* out)>;

/// Maps the user-facing thread-count knob to a worker count:
/// 0 → hardware concurrency (at least 1), otherwise the value itself.
size_t ResolveNumThreads(size_t num_threads);

/// Below this many scoring calls the dispatch overhead (futures, wakeups)
/// exceeds the work: the fill functions fall back to serial, and callers
/// that create thread pools lazily should not pay for one.
inline constexpr size_t kMinParallelWork = 2048;

/// True when `work_items` scoring calls are enough to amortize pool
/// dispatch.
bool WorthParallelizing(size_t work_items);

/// Fills every cell of `cost` by calling fn on row ranges that cover it.
/// Runs serially (one range of all rows) when `pool` is null or the matrix
/// is too small to amortize dispatch; otherwise row-blocks across the pool.
/// Deterministic for a pure `fn`.
void FillCostMatrixParallel(CostMatrix* cost, const RowRangeCostFn& fn,
                            ThreadPool* pool);

/// Scores edges[i].cost = fn(edges[i].row, edges[i].col) for all i, blocked
/// across the pool (serial when `pool` is null or the list is small).
void ScoreEdgesParallel(std::vector<SparseEdge>* edges, const PairCostFn& fn,
                        ThreadPool* pool);

/// Calls fn(i) for i in [0, n), blocked across the pool (serial fallback as
/// above). Used to pre-warm the embedding cache for a column's values.
void ParallelIndexFor(size_t n, const std::function<void(size_t)>& fn,
                      ThreadPool* pool);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_ASSIGNMENT_PARALLEL_COST_H_
