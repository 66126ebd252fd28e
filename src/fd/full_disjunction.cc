#include "fd/full_disjunction.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Components below this tuple count skip their per-item trace span: tiny
/// components dominate by count but not by time, and spanning each one
/// would flood the trace (and the span cap) with noise.
constexpr size_t kComponentSpanMinTuples = 64;

/// A split component becomes this many root-branch ranges per pool worker.
/// Root branches differ widely in cost (each later one starts with more of
/// the component excluded), so several ranges per worker let the lanes even
/// the load out.
constexpr size_t kChunksPerWorker = 8;

/// The node budget runs out under two different contracts: the library-wide
/// FdOptions::max_search_nodes safety valve (a caller-tunable precondition,
/// legacy kFailedPrecondition) and a request-scoped
/// ResourceBudget::max_fd_nodes (an overload signal, kResourceExhausted —
/// retryable with a larger budget, truncatable under kTruncate).
Status BudgetExhaustedError(const RequestContext& ctx) {
  if (ctx.budget.max_fd_nodes > 0) {
    return Status::ResourceExhausted(
        "full disjunction node budget exhausted "
        "(ResourceBudget::max_fd_nodes)");
  }
  return Status::FailedPrecondition(
      "full disjunction search budget exhausted "
      "(max_search_nodes); component too entangled");
}

/// Reusable per-lane enumeration state. Allocating and zeroing these
/// O(num_tuples) arrays per component was an O(n · num_components) hidden
/// cost; a scratch is allocated once per lane and stays clean between work
/// items (epoch stamps for the seen set; Include/Undo pairing restores
/// every flag it sets).
struct FdScratch {
  explicit FdScratch(const FdProblem& problem)
      : merged(problem.num_columns(), FdProblem::kNullCode),
        excluded(problem.num_tuples(), 0),
        seen_stamp(problem.num_tuples(), 0),
        table_used(problem.num_tables(), 0),
        levels(problem.num_tables()) {}

  std::vector<uint32_t> merged;  ///< current join, as dictionary codes
  std::vector<char> excluded;
  std::vector<uint64_t> seen_stamp;
  std::vector<char> table_used;
  uint64_t epoch = 0;
  /// The per-node temporaries of the branch loop at depth |S|. A set holds
  /// at most one tuple per table, so |S| <= num_tables() - 1 there. The
  /// levels keep their capacity, so a warm lane allocates nothing per node.
  struct Level {
    std::vector<uint32_t> flipped;  ///< Include's undo record
    std::vector<uint32_t> child;    ///< the branch's extension set
    std::vector<uint32_t> locally_excluded;  ///< earlier siblings
  };
  std::vector<Level> levels;
};

/// The fast path: a component is one legal set — emitted whole, without
/// search — iff no table contributes two of its tuples (an FD set holds at
/// most one tuple per relation) and every column has at most one distinct
/// non-null code across it. Components are sorted and TIDs table-ordered,
/// so two tuples of one table sit next to each other. O(total cells); on
/// success *codes holds the component's join.
bool JoinsWhole(const FdProblem& problem,
                const std::vector<uint32_t>& component,
                std::vector<uint32_t>* codes) {
  for (size_t i = 1; i < component.size(); ++i) {
    if (problem.table_id(component[i]) == problem.table_id(component[i - 1])) {
      return false;
    }
  }
  codes->assign(problem.num_columns(), FdProblem::kNullCode);
  for (uint32_t tid : component) {
    const uint32_t* row = problem.CodeRow(tid);
    for (size_t c = 0; c < problem.num_columns(); ++c) {
      if (row[c] == FdProblem::kNullCode) continue;
      if ((*codes)[c] == FdProblem::kNullCode) {
        (*codes)[c] = row[c];
      } else if ((*codes)[c] != row[c]) {
        return false;
      }
    }
  }
  return true;
}

/// Mutable enumeration state for one work item: a whole component, or a
/// range of its root branches. All merge/consistency work happens on
/// interned uint32 code rows; the scratch arrays are owned by the caller
/// and reused across items.
class ComponentEnumerator {
 public:
  ComponentEnumerator(const FdProblem& problem,
                      const std::vector<uint32_t>& component,
                      std::atomic<int64_t>& budget, FdScratch* scratch,
                      const RequestContext& ctx)
      : problem_(problem),
        component_(component),
        budget_(budget),
        ctx_(ctx),
        s_(*scratch),
        num_cols_(problem.num_columns()) {}

  /// Enumerates root branches [begin, end) of the component: all of them
  /// for a whole component, which also gets the fast path. On entry to
  /// root branch `begin` the whole-component loop has excluded every
  /// earlier root branch, so those are marked excluded here first and
  /// cleared after; range 0 counts the root node. A split component's
  /// ranges, joined in order, therefore reproduce the whole enumeration's
  /// output and node count exactly. The scratch is clean again on return,
  /// even on error.
  Result<std::vector<FdCodeTuple>> Enumerate(size_t begin, size_t end) {
    if (begin == 0 && end == component_.size()) {
      FdCodeTuple whole;
      if (JoinsWhole(problem_, component_, &whole.codes)) {
        whole.tids = component_;
        out_.push_back(std::move(whole));
        return std::move(out_);
      }
    }
    // With S = ∅ every component member is a consistent extension
    // (components are already sorted), so the component is the root's ext.
    Status st = begin == 0 ? CountNode() : Status::OK();
    for (size_t i = 0; i < begin; ++i) s_.excluded[component_[i]] = 1;
    if (st.ok()) {
      st = RunBranchRange(component_.data(), component_.size(), begin, end);
    }
    for (size_t i = 0; i < begin; ++i) s_.excluded[component_[i]] = 0;
    SettleBudget();
    if (!st.ok()) return st;
    return std::move(out_);
  }

  uint64_t nodes_used() const { return nodes_used_; }

 private:
  /// Settles the shared budget to exact node counts: block draws are
  /// amortized permission for 1024 nodes each; the unused remainder is
  /// refunded (or the never-drawn tail charged) when the item finishes.
  /// Keeps many small items — which rarely hit a block boundary of their
  /// own — collectively accountable to one budget.
  void SettleBudget() {
    const int64_t drawn = static_cast<int64_t>(blocks_drawn_) * 1024;
    budget_.fetch_sub(static_cast<int64_t>(nodes_used_) - drawn,
                       std::memory_order_relaxed);
  }

  /// Counts one search node. The root and every 1024th node poll the stop
  /// checkpoints and draw the next budget block, so a live token (or a set
  /// deadline) costs one poll per 1024 search nodes, not per node.
  Status CountNode() {
    ++nodes_used_;
    if ((nodes_used_ & 0x3ff) == 0 || members_.empty()) {
      LAKEFUZZ_RETURN_IF_ERROR(ctx_.CheckStop("full disjunction"));
      ++blocks_drawn_;
      if (budget_.fetch_sub(1024, std::memory_order_relaxed) <= 0) {
        return BudgetExhaustedError(ctx_);
      }
    }
    return Status::OK();
  }

  bool ConsistentWithMerged(uint32_t tid) const {
    const uint32_t* row = problem_.CodeRow(tid);
    const uint32_t* merged = s_.merged.data();
    for (size_t c = 0; c < num_cols_; ++c) {
      const uint32_t rc = row[c];
      if (rc == FdProblem::kNullCode ||
          merged[c] == FdProblem::kNullCode) {
        continue;
      }
      if (merged[c] != rc) return false;
    }
    return true;
  }

  /// Adds `tid` to S; appends the columns that flipped null→non-null to
  /// *flipped (undo record for backtracking).
  void Include(uint32_t tid, std::vector<uint32_t>* flipped) {
    const uint32_t* row = problem_.CodeRow(tid);
    for (size_t c = 0; c < num_cols_; ++c) {
      if (row[c] == FdProblem::kNullCode ||
          s_.merged[c] != FdProblem::kNullCode) {
        continue;
      }
      s_.merged[c] = row[c];
      flipped->push_back(static_cast<uint32_t>(c));
    }
    s_.table_used[problem_.table_id(tid)] = 1;
    members_.push_back(tid);
  }

  void Undo(uint32_t tid, const uint32_t* flipped, size_t num_flipped) {
    for (size_t k = 0; k < num_flipped; ++k) {
      s_.merged[flipped[k]] = FdProblem::kNullCode;
    }
    s_.table_used[problem_.table_id(tid)] = 0;
    members_.pop_back();
  }

  /// Extension set of the seed set S = {v}: v's join-graph neighbors,
  /// filtered. The root's `ext` (all component members) is *not* neighbor-
  /// derived, so it must not be carried over — connectivity starts here.
  void SeedExtensions(uint32_t v, std::vector<uint32_t>* child) {
    ++s_.epoch;
    problem_.ForEachCoPosted(v, s_.table_used.data(), [&](uint32_t nb) {
      if (s_.seen_stamp[nb] == s_.epoch) return;
      s_.seen_stamp[nb] = s_.epoch;
      if (!ConsistentWithMerged(nb)) return;
      child->push_back(nb);
    });
    std::sort(child->begin(), child->end());
  }

  /// Extension set after including `v` into S (|S| ≥ 1), derived
  /// incrementally from the parent's set `ext` (the consistent join-graph
  /// extensions of S, ignoring exclusions). Correctness rests on
  /// monotonicity: merged codes only gain columns and used tables only grow
  /// as S grows, so
  ///   ext(S ∪ {v}) = {u ∈ ext(S) : table(u) ≠ table(v), u agrees with v's
  ///                   newly `flipped` columns}
  ///                ∪ {u ∈ N(v) \ ext(S) : table(u) unused, u consistent}.
  /// A neighbor of an earlier member that failed its check once can never
  /// pass later, so re-testing only v's neighbors loses nothing. This
  /// replaces the former per-node rescan of *every* member's posting lists
  /// (the superlinear term on hub-heavy join graphs) with O(|ext| · |flipped|
  /// + tuples of unused tables co-posted with v). The final sort keeps
  /// exploration order — and therefore results — identical to the
  /// materialized-adjacency implementation.
  void ChildExtensions(const uint32_t* ext, size_t ext_size, uint32_t v,
                       const uint32_t* flipped, size_t num_flipped,
                       std::vector<uint32_t>* child) {
    const uint32_t v_table = problem_.table_id(v);
    ++s_.epoch;
    for (size_t i = 0; i < ext_size; ++i) {
      const uint32_t u = ext[i];
      s_.seen_stamp[u] = s_.epoch;
      if (problem_.table_id(u) == v_table) continue;  // v itself, too
      const uint32_t* row = problem_.CodeRow(u);
      bool ok = true;
      for (size_t k = 0; k < num_flipped; ++k) {
        const uint32_t c = flipped[k];
        if (row[c] != FdProblem::kNullCode && row[c] != s_.merged[c]) {
          ok = false;
          break;
        }
      }
      if (ok) child->push_back(u);
    }
    // One tuple per relation: a tuple whose table is already represented
    // (S's members included) can never extend S, neither now nor in any
    // superset of S, so the used tables' blocks are skipped unvisited.
    problem_.ForEachCoPosted(v, s_.table_used.data(), [&](uint32_t nb) {
      if (s_.seen_stamp[nb] == s_.epoch) return;
      s_.seen_stamp[nb] = s_.epoch;
      if (!ConsistentWithMerged(nb)) return;
      child->push_back(nb);
    });
    std::sort(child->begin(), child->end());
  }

  void EmitResult() {
    FdCodeTuple t;
    t.codes = s_.merged;
    t.tids = members_;
    std::sort(t.tids.begin(), t.tids.end());
    out_.push_back(std::move(t));
  }

  /// `ext` = consistent join-graph extensions of the current S, ignoring
  /// exclusions (the maximality test set), sorted ascending.
  Status Extend(const uint32_t* ext, size_t ext_size) {
    LAKEFUZZ_RETURN_IF_ERROR(CountNode());
    if (ext_size == 0) {
      // S is ⊆-maximal among connected consistent sets: emit.
      EmitResult();
      return Status::OK();
    }
    bool any_candidate = false;
    for (size_t i = 0; i < ext_size; ++i) {
      if (!s_.excluded[ext[i]]) {
        any_candidate = true;
        break;
      }
    }
    if (!any_candidate) {
      // Extendable only by excluded tuples: every maximal superset contains
      // an excluded tuple and is enumerated in a sibling branch. Prune.
      return Status::OK();
    }
    return RunBranchRange(ext, ext_size, 0, ext_size);
  }

  /// The branch loop of one node, restricted to ext[begin, end): the unit
  /// both Extend (whole node) and a root-branch range execute. S is
  /// identical across iterations (Include/Undo pairs), but the exclusion
  /// set grows — candidates excluded by earlier siblings (or on range
  /// entry) are skipped. The node's temporaries live in the level of its
  /// depth; `ext` belongs to the level above, which this node never writes.
  Status RunBranchRange(const uint32_t* ext, size_t ext_size, size_t begin,
                        size_t end) {
    FdScratch::Level& level = s_.levels[members_.size()];
    level.locally_excluded.clear();
    Status st = Status::OK();
    for (size_t i = begin; i < end; ++i) {
      const uint32_t v = ext[i];
      if (s_.excluded[v]) continue;
      level.flipped.clear();
      Include(v, &level.flipped);
      level.child.clear();
      if (members_.size() == 1) {
        SeedExtensions(v, &level.child);
      } else {
        ChildExtensions(ext, ext_size, v, level.flipped.data(),
                        level.flipped.size(), &level.child);
      }
      st = Extend(level.child.data(), level.child.size());
      Undo(v, level.flipped.data(), level.flipped.size());
      if (!st.ok()) break;
      s_.excluded[v] = 1;
      level.locally_excluded.push_back(v);
    }
    for (uint32_t v : level.locally_excluded) s_.excluded[v] = 0;
    return st;
  }

  const FdProblem& problem_;
  const std::vector<uint32_t>& component_;
  std::atomic<int64_t>& budget_;
  const RequestContext& ctx_;
  FdScratch& s_;
  const size_t num_cols_;

  std::vector<uint32_t> members_;
  std::vector<FdCodeTuple> out_;
  uint64_t nodes_used_ = 0;
  uint64_t blocks_drawn_ = 0;
};

/// One unit of enumeration work: root branches [begin, end) of component
/// `comp` (an index into the size-sorted order). A component that is not
/// split is one item covering all of its root branches.
struct WorkItem {
  size_t comp = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Plans the work items in component order. A component is split when the
/// pool has more than one worker, the component holds at least
/// 1/(2·workers) of all tuples (so component-level parallelism alone would
/// starve the other lanes), and the fast path would not emit it whole; it
/// then becomes workers × kChunksPerWorker ranges of its root branches (one
/// per branch when it has fewer).
std::vector<WorkItem> PlanWorkItems(
    const FdProblem& problem,
    const std::vector<const std::vector<uint32_t>*>& comps, size_t workers) {
  std::vector<WorkItem> items;
  items.reserve(comps.size());
  std::vector<uint32_t> codes;
  for (size_t c = 0; c < comps.size(); ++c) {
    const size_t size = comps[c]->size();
    size_t ranges = 1;
    if (workers > 1 && size * 2 * workers >= problem.num_tuples() &&
        !JoinsWhole(problem, *comps[c], &codes)) {
      ranges = std::min(size, workers * kChunksPerWorker);
    }
    for (size_t r = 0; r < ranges; ++r) {
      items.push_back(WorkItem{c, r * size / ranges, (r + 1) * size / ranges});
    }
  }
  return items;
}

}  // namespace

Result<std::vector<FdCodeTuple>> FullDisjunction::RunCodes(
    FdProblem* problem, ThreadPool* pool, FdStats* stats,
    const RequestContext& ctx) const {
  const PoolStats pool_before = pool != nullptr ? pool->stats() : PoolStats();

  StageScope index(ctx, Stage::kFdIndex);
  problem->BuildIndex(pool);
  index.AddAttr("distinct_values",
                static_cast<int64_t>(problem->index_stats().distinct_values));
  index.End();
  stats->num_input_tuples = problem->num_tuples();
  stats->num_components = problem->Components().size();
  stats->distinct_values = problem->index_stats().distinct_values;
  stats->posting_lists = problem->index_stats().posting_lists;
  stats->posting_entries = problem->index_stats().posting_entries;

  // Largest components first: they dominate runtime, so schedule them before
  // the long tail of singletons.
  std::vector<const std::vector<uint32_t>*> comps;
  comps.reserve(problem->Components().size());
  for (const auto& c : problem->Components()) {
    comps.push_back(&c);
    stats->largest_component =
        std::max(stats->largest_component, c.size());
  }
  std::stable_sort(comps.begin(), comps.end(),
                   [](const auto* a, const auto* b) {
                     return a->size() > b->size();
                   });

  StageScope enumerate(ctx, Stage::kFdEnumerate);
  const RequestContext enum_ctx = ctx.WithSpan(enumerate.span_id());
  int64_t node_cap = static_cast<int64_t>(options_.max_search_nodes);
  if (ctx.budget.max_fd_nodes > 0) {
    node_cap =
        std::min(node_cap, static_cast<int64_t>(ctx.budget.max_fd_nodes));
  }
  std::atomic<int64_t> budget{node_cap};

  // One work lane per pool worker (one inline lane without a pool), each
  // with its own scratch: enumeration state is O(num_tuples) to zero, so it
  // is allocated once here, not once per item.
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  std::vector<FdScratch> scratches;
  scratches.reserve(workers);
  for (size_t i = 0; i < workers; ++i) scratches.emplace_back(*problem);

  const std::vector<WorkItem> items =
      PlanWorkItems(*problem, comps, workers);
  stats->intra_tasks = static_cast<uint64_t>(
      std::count_if(items.begin(), items.end(), [&](const WorkItem& w) {
        return w.end - w.begin < comps[w.comp]->size();
      }));
  std::vector<std::vector<FdCodeTuple>> per_item(items.size());
  // A component is kept only when all of its items complete; the first
  // failed item marks it, and its later items become no-ops.
  std::vector<std::atomic<bool>> comp_failed(comps.size());
  std::atomic<bool> hard_stop{false};
  std::mutex err_mu;
  Status first_error = Status::OK();  // guarded by err_mu
  Status trunc_stop = Status::OK();   // guarded by err_mu (kTruncate stops)
  std::atomic<uint64_t> total_nodes{0};

  MaybeParallelForWithLane(pool, items.size(), [&](size_t lane, size_t k) {
    const WorkItem& item = items[k];
    if (hard_stop.load(std::memory_order_relaxed) ||
        comp_failed[item.comp].load(std::memory_order_relaxed)) {
      return;
    }
    // Per-item checkpoint: once the token fires or the deadline passes, the
    // remaining items become no-ops instead of enumerating. Small items
    // rarely reach the enumerator's amortized budget draw, so exhaustion is
    // also enforced here against the settled shared counter.
    const std::vector<uint32_t>& comp = *comps[item.comp];
    Status st = ctx.CheckStop("full disjunction");
    if (st.ok() && budget.load(std::memory_order_relaxed) <= 0) {
      st = BudgetExhaustedError(ctx);
    }
#ifdef LAKEFUZZ_FAULT_POINTS
    // Work-item seam: a chaos-armed "fd/task" fault fails this item as a
    // real mid-enumeration error would (the lambda returns void, so the
    // macro's return-propagation form cannot be used here).
    if (st.ok()) st = FaultInjector::Instance().Poke("fd/task");
#endif
    if (st.ok()) {
      const bool whole = item.end - item.begin == comp.size();
      ScopedSpan span(
          comp.size() >= kComponentSpanMinTuples ? enum_ctx.tracer : nullptr,
          whole ? "fd_component" : "fd_task", enum_ctx.trace_parent);
      span.AddAttr("tuples", static_cast<int64_t>(comp.size()));
      ComponentEnumerator enumerator(*problem, comp, budget,
                                     &scratches[lane], enum_ctx);
      auto res = enumerator.Enumerate(item.begin, item.end);
      span.AddAttr("nodes", static_cast<int64_t>(enumerator.nodes_used()));
      total_nodes.fetch_add(enumerator.nodes_used(),
                            std::memory_order_relaxed);
      if (res.ok()) {
        per_item[k] = std::move(res).value();
        return;
      }
      st = res.status();  // mid-item stop: the component is discarded
    }
    comp_failed[item.comp].store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(err_mu);
    if (ctx.ShouldTruncate(st.code())) {
      if (trunc_stop.ok()) trunc_stop = st;
    } else if (first_error.ok()) {
      first_error = st;
      hard_stop.store(true, std::memory_order_relaxed);
    }
  });
  if (!first_error.ok()) return first_error;
  if (!trunc_stop.ok()) {
    // Under kTruncate a deadline/budget stop keeps the components that
    // completed (an FD component is all-or-nothing). Cancellation always
    // fails the request.
    stats->truncation.truncated = true;
    stats->truncation.stage = Stage::kFdEnumerate;
    stats->truncation.reason = trunc_stop.message();
    for (const auto& failed : comp_failed) {
      if (failed.load(std::memory_order_relaxed)) {
        ++stats->truncation.components_skipped;
      } else {
        ++stats->truncation.components_completed;
      }
    }
  }
  stats->search_nodes = total_nodes.load();

  // Zero-copy flatten of the kept items in order: one exact reservation,
  // then pure moves.
  std::vector<FdCodeTuple> code_tuples;
  size_t total_tuples = 0;
  for (const auto& tuples : per_item) total_tuples += tuples.size();
  code_tuples.reserve(total_tuples);
  for (size_t k = 0; k < items.size(); ++k) {
    if (comp_failed[items[k].comp].load(std::memory_order_relaxed)) continue;
    for (auto& t : per_item[k]) code_tuples.push_back(std::move(t));
  }
  enumerate.AddAttr("components", static_cast<int64_t>(comps.size()));
  enumerate.AddAttr("search_nodes",
                    static_cast<int64_t>(stats->search_nodes));
  stats->enumeration_seconds = static_cast<double>(enumerate.End()) * 1e-9;
  stats->results_before_subsumption = code_tuples.size();

  // Subsuming an already-truncated partial result is cleanup: it must keep
  // honoring cancellation but not be re-aborted by the expired deadline
  // that caused the truncation.
  const RequestContext subsume_ctx =
      stats->truncation.truncated ? ctx.CancelOnly() : ctx;
  LAKEFUZZ_RETURN_IF_ERROR(subsume_ctx.CheckStop("full disjunction"));
  StageScope subsume(subsume_ctx, Stage::kFdSubsume);
  subsume.AddAttr("input_tuples", static_cast<int64_t>(code_tuples.size()));
  LAKEFUZZ_ASSIGN_OR_RETURN(
      code_tuples,
      EliminateSubsumedCodes(std::move(code_tuples), pool, &subsume_ctx));
  subsume.AddAttr("results", static_cast<int64_t>(code_tuples.size()));
  subsume.End();
  stats->results = code_tuples.size();
  if (stats->truncation.truncated) {
    stats->truncation.tuples_emitted = code_tuples.size();
  }
  if (pool != nullptr) {
    const PoolStats pool_delta = pool->stats() - pool_before;
    stats->pool_tasks = pool_delta.tasks;
    stats->pool_busy_seconds = static_cast<double>(pool_delta.busy_ns) * 1e-9;
    stats->pool_wait_seconds =
        static_cast<double>(pool_delta.queue_wait_ns) * 1e-9;
  }
  return code_tuples;
}

Result<FdResult> FullDisjunction::Run(FdProblem* problem,
                                      ThreadPool* pool) const {
  FdResult out;
  LAKEFUZZ_ASSIGN_OR_RETURN(std::vector<FdCodeTuple> code_tuples,
                            RunCodes(problem, pool, &out.stats));
  out.tuples.resize(code_tuples.size());
  MaybeParallelFor(pool, code_tuples.size(), [&](size_t i) {
    out.tuples[i] = DecodeCodeTuple(code_tuples[i], problem->dict());
  });
  return out;
}

}  // namespace lakefuzz
