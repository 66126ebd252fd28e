// ValueMatcher: the paper's Match Values component (Sec 2.2).
//
// Solves the Fuzzy Value Match Problem (Definition 2): given a set of
// aligning columns (clean-clean — values within a column are consistent),
// partition all values into disjoint groups such that values in a group are
// within distance θ, by *sequential bipartite matching*:
//
//   combined ← column 1
//   for each next column c:
//     cost[i][j] = dist(representative(combined_i), value(c_j))
//     optimal linear sum assignment; drop pairs with cost ≥ θ
//     merge matched values into their groups; unmatched values become
//     singleton groups; re-elect each group's representative = the value
//     occurring most often across ALL aligning columns (tie → the member
//     from the earliest column)
//
// dist is cosine distance between embeddings (the paper's choice) or any
// classic string distance (ablation A3).
//
// Engineering additions, both ablatable (DESIGN.md §4.2):
//   * exact-match pre-pass — identical (identity-normalized) values match
//     without entering the assignment problem;
//   * blocking + sparse assignment above a dense-size budget.
#ifndef LAKEFUZZ_CORE_VALUE_MATCHER_H_
#define LAKEFUZZ_CORE_VALUE_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "assignment/thresholded.h"
#include "core/blocking.h"
#include "embedding/embedding_cache.h"
#include "embedding/model.h"
#include "text/distance.h"
#include "util/request_context.h"
#include "util/result.h"

namespace lakefuzz {

class ThreadPool;

struct ValueMatcherOptions {
  /// Matching threshold θ (paper default 0.7 — their best setting).
  double threshold = 0.7;
  /// Select θ per column pair from the observed distance distribution
  /// (extension; Auto-FuzzyJoin direction — see core/auto_threshold.h).
  /// `threshold` then only serves as the fallback.
  bool auto_threshold = false;
  AssignmentAlgorithm algorithm = AssignmentAlgorithm::kOptimal;
  /// See ThresholdedOptions::mask_before_solve (default: the paper's
  /// solve-then-filter behavior, which ablation A2 shows is also better).
  bool mask_before_solve = false;
  /// Unify identity-equal values (equal NormalizeForIdentity keys: case
  /// folded, whitespace collapsed and trimmed, punctuation kept) before the
  /// assignment stage.
  bool exact_match_prepass = true;
  /// Above this many cells, the dense cost matrix is replaced by blocking +
  /// sparse per-component assignment.
  size_t max_dense_cells = size_t{1} << 22;
  BlockingOptions blocking;
  /// Distance source: embedding cosine when `shared_cache` or `model` is
  /// set (paper), else `string_distance` (must be set; ablation A3).
  /// `model` serves standalone callers: each MatchColumns call memoizes it
  /// into a fresh EmbeddingCache, so the stats count that call alone.
  /// Ignored when `shared_cache` is set.
  std::shared_ptr<const EmbeddingModel> model;
  StringDistanceFn string_distance;
  /// Cross-call embedding memo owned by a long-lived session (a LakeEngine
  /// passes the one its alignment also reads). When set, the matcher runs
  /// in embedding mode on the memo's model and memoizes into it instead of
  /// a fresh per-call cache, so strings embedded by alignment or by an
  /// earlier call are hits. stats.embedding_cache_{hits,misses} then report
  /// this call's delta of the memo's counters. Match results are unaffected
  /// — the memo holds a pure function's values.
  std::shared_ptr<const EmbeddingCache> shared_cache;
  /// Worker pool for cost-matrix fill, sparse-edge scoring, and value
  /// embedding (a LakeEngine's session pool, or the caller's); null runs
  /// them serially. Not owned. Work below the parallelization thresholds
  /// still runs serially. Results are deterministic regardless of the pool.
  ThreadPool* pool = nullptr;
};

/// One disjoint set of matched values.
struct ValueGroup {
  /// (aligned-column index, value); at most one member per column
  /// (clean-clean ⇒ bipartite 1:1 matching per column).
  std::vector<std::pair<size_t, std::string>> members;
  /// The elected representative value.
  std::string representative;
  /// Index into `members` of the representative.
  size_t representative_member = 0;
};

struct ValueMatchStats {
  size_t exact_matches = 0;
  size_t assignment_matches = 0;
  size_t dense_solves = 0;
  size_t sparse_solves = 0;
  size_t cost_evaluations = 0;
  /// Always 0: every cost is computed exactly. Kept only because the
  /// repository benchmark's `core.pruned_ratio` still reads it; it goes
  /// with the next change to that benchmark.
  size_t pruned_evaluations = 0;
  /// Embedding-cache traffic (embedding mode only): hits are value→vector
  /// lookups answered from the cache, misses the distinct strings this call
  /// embedded. Deterministic at any thread count; with concurrent requests
  /// on one shared memo the split between them is approximate.
  size_t embedding_cache_hits = 0;
  size_t embedding_cache_misses = 0;
  /// θ actually used per assignment round (one entry per solve; equals the
  /// configured threshold unless auto_threshold is on).
  std::vector<double> thresholds_used;
};

struct ValueMatchResult {
  std::vector<ValueGroup> groups;
  ValueMatchStats stats;
};

/// All cross-column matched value pairs implied by the grouping, as
/// ((col_a, value_a), (col_b, value_b)) with col_a < col_b — the unit the
/// Auto-Join benchmark evaluates P/R/F1 on.
std::vector<std::pair<std::pair<size_t, std::string>,
                      std::pair<size_t, std::string>>>
CrossColumnPairs(const ValueMatchResult& result);

class ValueMatcher {
 public:
  explicit ValueMatcher(ValueMatcherOptions options);

  /// Matches values across aligned columns. `columns[i]` holds the distinct
  /// values of the i-th aligning column, in table order. Duplicate values
  /// within one column violate clean-clean and are rejected, as is an
  /// embedding whose size is not the model's dim() (kInvalidArgument naming
  /// the value). `ctx` is polled (CheckStop) between merge rounds, once per
  /// aligning column.
  Result<ValueMatchResult> MatchColumns(
      const std::vector<std::vector<std::string>>& columns,
      const RequestContext& ctx = RequestContext()) const;

 private:
  ValueMatcherOptions options_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CORE_VALUE_MATCHER_H_
