// Full Disjunction: the associative information-preserving integration
// operator (Galindo-Legaria 1994; Rajaraman & Ullman 1996).
//
// Semantics implemented (Cohen et al., VLDB 2006 characterization):
//   FD(T1..Tn) = subsumption-free set of joins of all *connected,
//   join-consistent* sets of input tuples over the aligned universal schema.
//
//   join-consistent: every pair of tuples in the set agrees on every column
//     where both are non-null;
//   connected: the graph linking tuples that share an equal non-null value
//     on some column is connected over the set.
//
// A legal set holds at most one tuple per table, so every link inside it
// joins two tables: "connected" over FdProblem's cross-table join graph is
// the same as the definition above. Two tuples of one table that share a
// value are no edge, yet still fall into one component when some tuple of
// another table is co-posted with both.
//
// Algorithm: per join-graph component, branch-and-exclude enumeration of the
// ⊆-maximal connected join-consistent sets (each set found exactly once; the
// exclusion set prunes subtrees whose maximal supersets were already
// covered), with a column-wise fast path for fully-consistent components.
// Joins of non-maximal sets are subsumed by construction, so only maximal
// sets are materialized before the final subsumption pass.
//
// The whole pipeline runs on dictionary-encoded tuples: FdProblem gathers
// the session codes of the encoded input tables into flat uint32 rows, the
// enumerator merges and compares those rows, candidates stream from the CSR
// posting-list join graph, and subsumption operates on code rows too.
// Values are decoded exactly once, when the final FdResult is materialized.
//
// Equivalence with the textbook all-outer-join-orders definition is
// property-tested against fd/oracle.h, which reads the input tables
// directly, on randomized inputs.
#ifndef LAKEFUZZ_FD_FULL_DISJUNCTION_H_
#define LAKEFUZZ_FD_FULL_DISJUNCTION_H_

#include <cstdint>

#include "fd/fd_tuple.h"
#include "fd/problem.h"
#include "fd/subsumption.h"
#include "util/request_context.h"
#include "util/result.h"

namespace lakefuzz {

class ThreadPool;

struct FdOptions {
  /// Upper bound on enumeration nodes across the whole run; exceeded →
  /// FailedPrecondition (the instance is adversarially entangled). A
  /// request-scoped ResourceBudget::max_fd_nodes tightens this per request
  /// and surfaces kResourceExhausted instead.
  uint64_t max_search_nodes = 200'000'000;
};

/// Run diagnostics (reported by benchmarks).
struct FdStats {
  size_t num_input_tuples = 0;
  size_t num_components = 0;
  size_t largest_component = 0;
  uint64_t search_nodes = 0;
  /// Root-branch ranges that split components ran as (0 when no component
  /// was split). Deterministic: a function of the component sizes and the
  /// pool's worker count, never of scheduling.
  uint64_t intra_tasks = 0;
  size_t results_before_subsumption = 0;
  size_t results = 0;
  /// Interned-core counters: distinct non-null codes in the problem and
  /// CSR join-graph extent (FdIndexStats: cross-table lists only).
  size_t distinct_values = 0;
  size_t posting_lists = 0;
  size_t posting_entries = 0;
  /// Wall time of the fd_enumerate stage (the StageScope's own samples;
  /// the other FD stages are timed in the request's StageLedger only),
  /// including joining the work items' outputs in order.
  double enumeration_seconds = 0.0;
  /// Pool-level execution deltas over this run (zero without a pool). On a
  /// shared session pool these include any concurrent work the pool
  /// ran in the window. busy ≪ workers × wall time with queued work is the
  /// core-starved signature.
  uint64_t pool_tasks = 0;
  double pool_busy_seconds = 0.0;
  double pool_wait_seconds = 0.0;
  /// Degradation report: set when a deadline/budget stop under
  /// BudgetPolicy::kTruncate cut the run short (completed components were
  /// kept, the rest skipped). truncated == false means a complete result.
  Truncation truncation;
};

struct FdResult {
  std::vector<FdResultTuple> tuples;  ///< sorted by TID list
  FdStats stats;
};

/// The Full Disjunction executor. Join-graph components are independent FD
/// subproblems (Paganelli et al., Big Data Research 2019, parallelize FD the
/// same way), so enumeration is one loop over work items, largest
/// component first — balancing the skewed component sizes of real lakes —
/// across the lanes of an optional ThreadPool. An item is a whole
/// component or, for a giant component on a multi-worker pool, one range
/// of its root branches: a component holding at least 1/(2·workers) of all
/// tuples that the fast path does not emit whole is cut into workers × 8
/// ranges. Subsumption runs on the pool too. A null pool runs every stage
/// inline on one lane. Output and search_nodes are identical (same order)
/// at every pool size: the items, joined in order, reproduce the inline
/// enumeration regardless of completion order.
class FullDisjunction {
 public:
  explicit FullDisjunction(FdOptions options = FdOptions())
      : options_(options) {}

  /// Computes FD over a prepared problem (builds its index if needed) and
  /// decodes the result, on `pool` when given.
  Result<FdResult> Run(FdProblem* problem, ThreadPool* pool = nullptr) const;

  /// The decode-free core of Run: post-subsumption interned result rows in
  /// final (TID-sorted) order. Fills `stats` (results counts the surviving
  /// code tuples; decode wall time is the caller's). `ctx` is polled before
  /// every work item and inside the enumerator's amortized budget check: a
  /// fired token returns Status::Cancelled, an expired deadline
  /// Status::DeadlineExceeded, an exhausted ResourceBudget
  /// Status::ResourceExhausted — or, under BudgetPolicy::kTruncate, the
  /// deadline/budget stop keeps the components completed so far and records
  /// the cut in stats->truncation. The fd_index, fd_enumerate and
  /// fd_subsume stages are timed into ctx.ledger and fire ctx.progress on
  /// the calling thread only, never from pool workers.
  Result<std::vector<FdCodeTuple>> RunCodes(
      FdProblem* problem, ThreadPool* pool, FdStats* stats,
      const RequestContext& ctx = RequestContext()) const;

 private:
  FdOptions options_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_FULL_DISJUNCTION_H_
