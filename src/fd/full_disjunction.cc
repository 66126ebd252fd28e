#include "fd/full_disjunction.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>

#include "obs/trace.h"
#include "util/arena.h"
#include "util/fault_injection.h"
#include "util/rss.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Components below this tuple count skip their per-component trace span:
/// tiny components dominate by count but not by time, and spanning each one
/// would flood the trace (and the span cap) with noise.
constexpr size_t kComponentSpanMinTuples = 64;

/// Intra-component split policy: subtree tasks re-split while their root
/// depth is below kSplitDepth, so one dominant branch fans out again instead
/// of serializing a worker; after calibration a node splits only while the
/// measured task grain exceeds kSplitOverheadMultiple × the measured split
/// overhead (see SplitContext).
constexpr size_t kSplitDepth = 3;
constexpr double kSplitOverheadMultiple = 8.0;

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
/// cost; a scratch is allocated once per lane and stays clean between
/// components (epoch stamps for the seen set; Include/Undo pairing restores
/// every flag it sets).
struct FdScratch {
  explicit FdScratch(const FdProblem& problem)
      : merged(problem.num_columns(), FdProblem::kNullCode),
        in_set(problem.num_tuples(), 0),
        excluded(problem.num_tuples(), 0),
        seen_stamp(problem.num_tuples(), 0),
        table_used(problem.num_tables(), 0) {}

  std::vector<uint32_t> merged;  ///< current join, as dictionary codes
  std::vector<char> in_set;
  std::vector<char> excluded;
  std::vector<uint64_t> seen_stamp;
  std::vector<char> table_used;
  uint64_t epoch = 0;
  /// Per-lane bump arena for the enumerator's per-node temporaries
  /// (extension sets, flipped-column lists): scope-framed alloc/rewind
  /// instead of one malloc/free pair per search node.
  ArenaAllocator arena;
};

/// One independent subtree of the branch-and-exclude tree, fully described
/// by data (no live enumerator state): the ordinal path identifying the
/// subtree root (for the deterministic merge), the TIDs included along that
/// path (replayed onto a clean scratch), and the exclusion set as a short
/// chain of shared prefix views (exclude tids[0..prefix) of each link).
struct ExcludeLink {
  std::shared_ptr<const ExcludeLink> parent;
  std::shared_ptr<const std::vector<uint32_t>> tids;
  size_t prefix = 0;
};

struct SubtreeTask {
  std::vector<uint32_t> ordinals;
  std::vector<uint32_t> includes;
  std::shared_ptr<const ExcludeLink> excludes;
  /// Branch range [begin, end) of the node reached by `includes` that this
  /// task owns (chunking keeps task bookkeeping amortized over many
  /// branches). begin == end marks the whole-node root task, which also
  /// runs the node prelude (fast path, budget, pruning).
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Result tuples of one contiguous DFS run, tagged with the (depth-bounded)
/// ordinal path of the subtree that produced them. Tasks emit segments; the
/// runner sorts all segments lexicographically by path, which reproduces
/// the sequential DFS emission order exactly (each bounded path is
/// enumerated inline by exactly one task, and splitting only happens at
/// depths below the bound).
struct ResultSegment {
  std::vector<uint32_t> path;
  std::vector<FdCodeTuple> tuples;
};

/// Shared split policy + spawn hook handed to enumerators running inside
/// the intra-component runner. Null context = plain sequential enumeration.
struct SplitContext {
  size_t max_depth = 0;  ///< split nodes with |S| < max_depth
  size_t min_ext = 2;    ///< only split nodes with >= this many live branches
  size_t workers = 1;    ///< sizes the branch chunks of each split
  /// Backpressure gate: split only while fewer than this many tasks are
  /// queued (idle workers want food; a full queue means inline is cheaper).
  size_t queue_low_water = 0;
  std::atomic<size_t>* queued = nullptr;
  std::atomic<uint64_t>* spawned = nullptr;
  uint64_t spawn_cap = 0;
  /// Adaptive grain gate. Until `calibration_tasks` tasks have finished,
  /// splits are free — the first round is how grain gets measured.
  /// Afterwards a node may split only while the finished tasks' mean
  /// execution time exceeds kSplitOverheadMultiple × their mean split
  /// overhead (replay time, floored by a fixed per-task queue-bookkeeping
  /// estimate).
  uint64_t calibration_tasks = 0;
  std::atomic<uint64_t>* done_tasks = nullptr;
  std::atomic<uint64_t>* done_busy_ns = nullptr;
  std::atomic<uint64_t>* done_replay_ns = nullptr;
  std::function<void(SubtreeTask&&)> spawn;
};

/// Floor for the per-task split-overhead estimate: enqueue + dequeue +
/// descriptor construction cost real time even when the include-path replay
/// is trivially short, and that cost never shows up in replay_ns.
constexpr double kMinTaskOverheadNs = 2000.0;

/// Mutable enumeration state for one component (or one subtree task of a
/// component). All merge/consistency work happens on interned uint32 code
/// rows; the scratch arrays are owned by the caller and reused across
/// components and tasks.
class ComponentEnumerator {
 public:
  ComponentEnumerator(const FdProblem& problem,
                      const std::vector<uint32_t>& component,
                      std::atomic<int64_t>& budget, FdScratch* scratch,
                      const RequestContext& ctx,
                      SplitContext* split = nullptr)
      : problem_(problem),
        component_(component),
        budget_(budget),
        ctx_(ctx),
        split_(split),
        s_(*scratch),
        num_cols_(problem.num_columns()) {}

  /// Sequential whole-component enumeration (classic entry point).
  Result<std::vector<FdCodeTuple>> Enumerate() {
    SubtreeTask root;
    LAKEFUZZ_ASSIGN_OR_RETURN(std::vector<ResultSegment> segments,
                              EnumerateTask(root));
    std::vector<FdCodeTuple> out;
    size_t total = 0;
    for (const auto& seg : segments) total += seg.tuples.size();
    out.reserve(total);
    for (auto& seg : segments) {
      for (auto& t : seg.tuples) out.push_back(std::move(t));
    }
    return out;
  }

  /// Settles the shared budget to exact node counts: block draws are
  /// amortized permission for 1024 nodes each; the unused remainder is
  /// refunded (or the never-drawn tail charged) when the enumeration unit
  /// finishes. Keeps many small subtree tasks — which rarely hit a block
  /// boundary of their own — collectively accountable to one budget.
  void SettleBudget() {
    const int64_t drawn = static_cast<int64_t>(blocks_drawn_) * 1024;
    budget_.fetch_sub(static_cast<int64_t>(nodes_used_) - drawn,
                       std::memory_order_relaxed);
  }

  /// Runs one subtree task: replays the include path and exclusion chain
  /// onto the (clean) scratch, enumerates its branch range — spawning
  /// further tasks when the split context says so — and restores the
  /// scratch before returning, even on error. The root task (empty range)
  /// also owns the component fast path and the root-node prelude.
  Result<std::vector<ResultSegment>> EnumerateTask(const SubtreeTask& task) {
    if (task.includes.empty() && task.begin == task.end) {
      // Fast path: the whole component is a single legal set iff every
      // column has at most one distinct non-null code across it (O(total
      // cells)) and no table contributes two tuples (an FD set holds at
      // most one tuple per relation).
      if (ComponentTablesDistinct() && ComponentFullyConsistent()) {
        FdCodeTuple t;
        t.codes = s_.merged;  // filled by ComponentFullyConsistent
        t.tids = component_;
        ResetMerged();
        std::vector<ResultSegment> out(1);
        out[0].tuples.push_back(std::move(t));
        return out;
      }
      // Seed extension set: with S = ∅ every component member is a
      // consistent extension (components are already sorted).
      Status st = Extend(component_.data(), component_.size());
      ClearEntryExclusions();
      SettleBudget();
      if (!st.ok()) return st;
      return std::move(segments_);
    }

    // Everything up to the branch loop is split overhead — the price paid
    // for making this subtree a task instead of an inline recursion. The
    // adaptive gate compares it against measured task grain.
    const uint64_t replay_start = ThreadPool::NowNs();
    // Mark the exclusion chain (check-before-set so the clearing log stays
    // exact even when a TID appears in several links).
    for (const ExcludeLink* link = task.excludes.get(); link != nullptr;
         link = link->parent.get()) {
      const auto& tids = *link->tids;
      for (size_t i = 0; i < link->prefix; ++i) SetExcluded(tids[i]);
    }
    // Replay the include path, rebuilding the extension set exactly as the
    // sequential descent did (SeedExtensions for |S| = 1, then the
    // incremental ChildExtensions chain). Extensions ignore exclusions, so
    // marking the chain first cannot perturb the replay.
    ordinals_ = task.ordinals;
    std::vector<uint32_t> ext;
    std::vector<std::vector<uint32_t>> flips;
    flips.reserve(task.includes.size());
    for (uint32_t v : task.includes) {
      std::vector<uint32_t> flipped;
      Include(v, &flipped);
      std::vector<uint32_t> next;
      if (members_.size() == 1) {
        SeedExtensions(v, &next);
      } else {
        ChildExtensions(ext.data(), ext.size(), v, flipped.data(),
                        flipped.size(), &next);
      }
      ext = std::move(next);
      flips.push_back(std::move(flipped));
    }
    replay_ns_ = ThreadPool::NowNs() - replay_start;
    // The node prelude (node count, budget, pruning) ran in the task that
    // split this node; range tasks enumerate their branch slice directly.
    const std::vector<uint32_t>& node_ext =
        task.includes.empty() ? component_ : ext;
    Status st =
        RunBranchRange(node_ext.data(), node_ext.size(), task.begin, task.end);
    for (size_t k = task.includes.size(); k-- > 0;) {
      Undo(task.includes[k], flips[k].data(), flips[k].size());
    }
    ClearEntryExclusions();
    SettleBudget();
    if (!st.ok()) return st;
    return std::move(segments_);
  }

  uint64_t nodes_used() const { return nodes_used_; }

  /// Split-overhead time of this task (include-path replay + exclusion-chain
  /// marking); 0 for root tasks.
  uint64_t replay_ns() const { return replay_ns_; }

 private:
  void SetExcluded(uint32_t tid) {
    if (s_.excluded[tid]) return;
    s_.excluded[tid] = 1;
    if (split_ != nullptr) excluded_log_.push_back(tid);
  }

  void ClearExcluded(uint32_t tid) {
    s_.excluded[tid] = 0;
    if (split_ != nullptr) excluded_log_.pop_back();
  }

  /// Clears whatever exclusion marks remain logged (after Extend balanced
  /// its own, exactly the task-entry chain marks).
  void ClearEntryExclusions() {
    for (uint32_t tid : excluded_log_) s_.excluded[tid] = 0;
    excluded_log_.clear();
  }

  bool ComponentTablesDistinct() {
    for (uint32_t tid : component_) {
      uint32_t table = problem_.table_id(tid);
      if (s_.table_used[table]) {
        for (uint32_t seen : component_) {
          s_.table_used[problem_.table_id(seen)] = 0;
        }
        return false;
      }
      s_.table_used[table] = 1;
    }
    for (uint32_t tid : component_) {
      s_.table_used[problem_.table_id(tid)] = 0;
    }
    return true;
  }

  bool ComponentFullyConsistent() {
    for (uint32_t tid : component_) {
      const uint32_t* row = problem_.CodeRow(tid);
      for (size_t c = 0; c < num_cols_; ++c) {
        if (row[c] == FdProblem::kNullCode) continue;
        if (s_.merged[c] == FdProblem::kNullCode) {
          s_.merged[c] = row[c];
        } else if (s_.merged[c] != row[c]) {
          ResetMerged();
          return false;
        }
      }
    }
    return true;
  }

  void ResetMerged() {
    std::fill(s_.merged.begin(), s_.merged.end(), FdProblem::kNullCode);
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
  /// *flipped (undo record for backtracking). Vec = any push_back(uint32_t)
  /// container — ArenaVector on the hot path, std::vector in task replay.
  template <typename Vec>
  void Include(uint32_t tid, Vec* flipped) {
    const uint32_t* row = problem_.CodeRow(tid);
    for (size_t c = 0; c < num_cols_; ++c) {
      if (row[c] == FdProblem::kNullCode ||
          s_.merged[c] != FdProblem::kNullCode) {
        continue;
      }
      s_.merged[c] = row[c];
      flipped->push_back(static_cast<uint32_t>(c));
    }
    s_.in_set[tid] = true;
    s_.table_used[problem_.table_id(tid)] = 1;
    members_.push_back(tid);
  }

  void Undo(uint32_t tid, const uint32_t* flipped, size_t num_flipped) {
    for (size_t k = 0; k < num_flipped; ++k) {
      s_.merged[flipped[k]] = FdProblem::kNullCode;
    }
    s_.in_set[tid] = false;
    s_.table_used[problem_.table_id(tid)] = 0;
    members_.pop_back();
  }

  /// Extension set of the seed set S = {v}: v's join-graph neighbors,
  /// filtered. The root's `ext` (all component members) is *not* neighbor-
  /// derived, so it must not be carried over — connectivity starts here.
  template <typename Vec>
  void SeedExtensions(uint32_t v, Vec* child) {
    ++s_.epoch;
    problem_.ForEachCoPosted(v, [&](uint32_t nb) {
      if (s_.in_set[nb]) return;
      if (s_.seen_stamp[nb] == s_.epoch) return;
      s_.seen_stamp[nb] = s_.epoch;
      if (s_.table_used[problem_.table_id(nb)]) return;
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
  ///                ∪ {u ∈ N(v) \ ext(S) : full table + consistency check}.
  /// A neighbor of an earlier member that failed its check once can never
  /// pass later, so re-testing only v's neighbors loses nothing. This
  /// replaces the former per-node rescan of *every* member's posting lists
  /// (the superlinear term on hub-heavy join graphs) with O(|ext| · |flipped|
  /// + deg(v)). The final sort keeps exploration order — and therefore
  /// results — identical to the materialized-adjacency implementation.
  template <typename Vec>
  void ChildExtensions(const uint32_t* ext, size_t ext_size, uint32_t v,
                       const uint32_t* flipped, size_t num_flipped,
                       Vec* child) {
    const uint32_t v_table = problem_.table_id(v);
    ++s_.epoch;
    for (size_t i = 0; i < ext_size; ++i) {
      const uint32_t u = ext[i];
      if (s_.in_set[u]) continue;  // v itself (just included)
      s_.seen_stamp[u] = s_.epoch;
      if (problem_.table_id(u) == v_table) continue;
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
    problem_.ForEachCoPosted(v, [&](uint32_t nb) {
      if (s_.in_set[nb]) return;
      if (s_.seen_stamp[nb] == s_.epoch) return;
      s_.seen_stamp[nb] = s_.epoch;
      // One tuple per relation: a tuple whose table is already represented
      // can never extend S (neither now nor in any superset of S).
      if (s_.table_used[problem_.table_id(nb)]) return;
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
    if (segments_.empty() || segments_.back().path != ordinals_) {
      segments_.emplace_back();
      segments_.back().path = ordinals_;
    }
    segments_.back().tuples.push_back(std::move(t));
  }

  /// Adaptive grain gate (see SplitContext): is the measured per-task
  /// execution time still worth a split's measured overhead?
  bool GrainAllowsSplit() const {
    const uint64_t tasks =
        split_->done_tasks->load(std::memory_order_relaxed);
    if (tasks < split_->calibration_tasks) return true;
    const uint64_t busy =
        split_->done_busy_ns->load(std::memory_order_relaxed);
    const uint64_t replay =
        split_->done_replay_ns->load(std::memory_order_relaxed);
    // Mean busy ≥ multiple × mean overhead, compared as totals (same task
    // denominator on both sides, so no division).
    const double overhead =
        std::max(static_cast<double>(replay),
                 static_cast<double>(tasks) * kMinTaskOverheadNs);
    return static_cast<double>(busy) >= kSplitOverheadMultiple * overhead;
  }

  /// True when this node should hand its branches to the work queue
  /// instead of recursing: shallow enough to re-split, enough live
  /// branches, idle workers waiting, the global task cap not reached, and
  /// observed task grain coarse enough to pay for a split.
  bool ShouldSplit(const uint32_t* ext, size_t ext_size) {
    if (split_ == nullptr || members_.size() >= split_->max_depth) {
      return false;
    }
    if (split_->queued->load(std::memory_order_relaxed) >=
        split_->queue_low_water) {
      return false;
    }
    if (split_->spawned->load(std::memory_order_relaxed) >=
        split_->spawn_cap) {
      return false;
    }
    if (!GrainAllowsSplit()) return false;
    size_t live = 0;
    for (size_t i = 0; i < ext_size; ++i) {
      if (!s_.excluded[ext[i]] && ++live >= split_->min_ext) return true;
    }
    return false;
  }

  /// Splits the current node's branch list into range tasks — a few
  /// branches per worker rather than one task per branch, so the replay +
  /// queue bookkeeping amortizes over a whole chunk. Chunk k's exclusion
  /// set = every TID currently excluded here (snapshot of the log) plus the
  /// ext prefix before the chunk — exactly what the sequential loop would
  /// have accumulated on entry to its first branch; within the chunk the
  /// range loop grows exclusions normally.
  void SpawnChildren(const uint32_t* ext, size_t ext_size) {
    auto snapshot =
        std::make_shared<const std::vector<uint32_t>>(excluded_log_);
    auto shared_ext =
        std::make_shared<const std::vector<uint32_t>>(ext, ext + ext_size);
    std::shared_ptr<const ExcludeLink> base;
    if (!snapshot->empty()) {
      base = std::make_shared<const ExcludeLink>(
          ExcludeLink{nullptr, snapshot, snapshot->size()});
    }
    constexpr size_t kChunksPerWorker = 8;
    const size_t chunk = std::max<size_t>(
        1, ext_size / std::max<size_t>(1, split_->workers *
                                              kChunksPerWorker));
    uint64_t count = 0;
    for (size_t start = 0; start < ext_size; start += chunk) {
      const size_t end = std::min(ext_size, start + chunk);
      bool any_live = false;
      for (size_t i = start; i < end; ++i) {
        if (!s_.excluded[ext[i]]) {
          any_live = true;
          break;
        }
      }
      if (!any_live) continue;
      SubtreeTask child;
      child.ordinals = ordinals_;
      child.includes = members_;
      child.begin = static_cast<uint32_t>(start);
      child.end = static_cast<uint32_t>(end);
      child.excludes = std::make_shared<const ExcludeLink>(
          ExcludeLink{base, shared_ext, start});
      ++count;
      split_->spawn(std::move(child));
    }
    split_->spawned->fetch_add(count, std::memory_order_relaxed);
  }

  /// `ext` = consistent join-graph extensions of the current S, ignoring
  /// exclusions (the maximality test set), sorted ascending.
  Status Extend(const uint32_t* ext, size_t ext_size) {
    ++nodes_used_;
    if ((nodes_used_ & 0x3ff) == 0 || members_.empty()) {
      // Amortized budget check: draw down in blocks. The cancellation and
      // deadline checkpoints share the amortization so a live token (or a
      // set deadline) costs one poll per 1024 search nodes, not per node.
      LAKEFUZZ_RETURN_IF_ERROR(ctx_.CheckStop("full disjunction"));
      ++blocks_drawn_;
      if (budget_.fetch_sub(1024, std::memory_order_relaxed) <= 0) {
        return BudgetExhaustedError(ctx_);
      }
    }
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
    if (ShouldSplit(ext, ext_size)) {
      SpawnChildren(ext, ext_size);
      return Status::OK();
    }
    return RunBranchRange(ext, ext_size, 0, ext_size);
  }

  /// The branch loop of one node, restricted to ext[begin, end): the unit
  /// both Extend (whole node) and spawned range tasks execute. S is
  /// identical across iterations (Include/Undo pairs), but the exclusion
  /// set grows — candidates excluded by earlier siblings (or on task
  /// entry) are skipped.
  ///
  /// Arena discipline: the node frame owns `locally_excluded`; each branch
  /// iteration opens its own frame for the flipped-column and child-ext
  /// temporaries and rewinds it before `locally_excluded` grows again, so
  /// the latter's buffer stays on top of the arena and push_back extends it
  /// in place (no dead copies pile up across siblings).
  Status RunBranchRange(const uint32_t* ext, size_t ext_size, size_t begin,
                        size_t end) {
    end = std::min(end, ext_size);
    const bool track_ordinals =
        split_ != nullptr && members_.size() < split_->max_depth;
    ArenaAllocator& a = s_.arena;
    ArenaFrame node_frame(a);
    ArenaVector<uint32_t> locally_excluded(a);
    Status st = Status::OK();
    for (size_t i = begin; i < end; ++i) {
      const uint32_t v = ext[i];
      if (s_.excluded[v]) continue;
      if (track_ordinals) ordinals_.push_back(static_cast<uint32_t>(i));
      {
        ArenaFrame iter_frame(a);
        ArenaVector<uint32_t> flipped(a);
        Include(v, &flipped);
        ArenaVector<uint32_t> child(a);
        if (members_.size() == 1) {
          SeedExtensions(v, &child);
        } else {
          ChildExtensions(ext, ext_size, v, flipped.data(), flipped.size(),
                          &child);
        }
        st = Extend(child.data(), child.size());
        Undo(v, flipped.data(), flipped.size());
      }
      if (track_ordinals) ordinals_.pop_back();
      if (!st.ok()) break;
      SetExcluded(v);
      locally_excluded.push_back(v);
    }
    for (size_t k = locally_excluded.size(); k-- > 0;) {
      ClearExcluded(locally_excluded[k]);
    }
    return st;
  }

  const FdProblem& problem_;
  const std::vector<uint32_t>& component_;
  std::atomic<int64_t>& budget_;
  const RequestContext& ctx_;
  SplitContext* split_;
  FdScratch& s_;
  const size_t num_cols_;

  std::vector<uint32_t> members_;
  /// Branch-ordinal path from the component root to the current node,
  /// tracked only below the split depth bound (split mode only).
  std::vector<uint32_t> ordinals_;
  /// Every TID currently flagged excluded by this task, in set order
  /// (task-entry chain marks + live sibling exclusions). Split mode only.
  std::vector<uint32_t> excluded_log_;
  std::vector<ResultSegment> segments_;
  uint64_t nodes_used_ = 0;
  uint64_t blocks_drawn_ = 0;
  uint64_t replay_ns_ = 0;
};

/// Intra-component parallel twin of a whole-component enumeration: the
/// component's branch-and-exclude tree is split into independent subtree
/// tasks (one per top-level branch chunk; depth-bounded re-splitting under
/// skew) that `workers` loops on the pool drain from a shared work queue.
/// Tasks spawn tasks; workers drain until nothing is queued or running. The
/// first error wins and flushes the queue. Results merge in deterministic
/// branch order, so output is byte-identical to ComponentEnumerator::
/// Enumerate at any worker count and schedule.
class IntraComponentRunner {
 public:
  IntraComponentRunner(const FdProblem& problem,
                       const std::vector<uint32_t>& component, size_t workers,
                       std::atomic<int64_t>& budget,
                       const RequestContext& ctx)
      : problem_(problem),
        component_(component),
        budget_(budget),
        ctx_(ctx),
        workers_(workers) {
    split_template_.max_depth = kSplitDepth;
    split_template_.min_ext = 2;
    split_template_.workers = workers;
    // The adaptive gate measures grain, so the queue only needs enough
    // slack to keep workers fed.
    split_template_.queue_low_water = workers * 2;
    split_template_.queued = &queued_;
    split_template_.spawned = &spawned_;
    // Hard cap on total tasks: descriptor bookkeeping must stay a rounding
    // error next to enumeration even on adversarial fan-out.
    split_template_.spawn_cap = std::max<uint64_t>(4096, workers * 1024);
    // One round per worker plus one settles the measurement before the gate
    // starts trusting it.
    split_template_.calibration_tasks =
        std::max<uint64_t>(4, static_cast<uint64_t>(workers) * 2);
    split_template_.done_tasks = &done_tasks_;
    split_template_.done_busy_ns = &done_busy_ns_;
    split_template_.done_replay_ns = &done_replay_ns_;
  }

  /// Runs the component on `workers` loops on `pool`, one per scratch
  /// (scratches->size() >= workers, same problem). Node totals are added to
  /// *nodes_used, spawned-task counts to *tasks_spawned, and the per-task
  /// grain/timing counters are merged into *profile.
  Result<std::vector<FdCodeTuple>> Run(ThreadPool* pool,
                                       std::vector<FdScratch>* scratches,
                                       uint64_t* nodes_used,
                                       uint64_t* tasks_spawned,
                                       FdTaskProfile* profile) {
    Enqueue(SubtreeTask{});
    std::vector<std::future<void>> futures;
    futures.reserve(workers_);
    for (size_t w = 0; w < workers_; ++w) {
      FdScratch* scratch = &(*scratches)[w];
      futures.push_back(pool->Submit([this, scratch] {
        WorkerLoop(scratch);
      }));
    }
    for (auto& f : futures) f.get();
    *nodes_used += total_nodes_;
    *tasks_spawned += spawned_.load(std::memory_order_relaxed);
    if (!first_error_.ok()) {
      profile->Merge(profile_);
      return first_error_;
    }

    // Deterministic merge: segments sorted by their bounded ordinal path
    // reproduce the sequential DFS emission order (ties are impossible —
    // each bounded path is owned by exactly one task). Only a compact index
    // array is sorted and only tuple ownership moves; no tuple bytes are
    // copied.
    const uint64_t merge_start = ThreadPool::NowNs();
    std::vector<uint32_t> order(segments_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return segments_[a].path < segments_[b].path;
    });
    std::vector<FdCodeTuple> out;
    size_t total = 0;
    for (const auto& seg : segments_) total += seg.tuples.size();
    out.reserve(total);
    for (uint32_t idx : order) {
      for (auto& t : segments_[idx].tuples) out.push_back(std::move(t));
    }
    profile_.merge_ns += ThreadPool::NowNs() - merge_start;
    profile->Merge(profile_);
    return out;
  }

 private:
  void Enqueue(SubtreeTask&& task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
      ++unfinished_;
    }
    queued_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_one();
  }

  void RecordError(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = status;
    // Flush pending work: queued tasks become no-ops so workers wind down
    // at task granularity instead of enumerating doomed subtrees.
    unfinished_ -= queue_.size();
    queue_.clear();
    queued_.store(0, std::memory_order_relaxed);
    cv_.notify_all();
  }

  void WorkerLoop(FdScratch* scratch) {
    SplitContext split = split_template_;
    split.spawn = [this](SubtreeTask&& t) { Enqueue(std::move(t)); };
    uint64_t wait_ns = 0;
    while (true) {
      SubtreeTask task;
      {
        const uint64_t wait_start = ThreadPool::NowNs();
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !queue_.empty() || unfinished_ == 0; });
        wait_ns += ThreadPool::NowNs() - wait_start;
        if (queue_.empty()) {  // unfinished_ == 0: all work done
          profile_.wait_ns += wait_ns;
          return;
        }
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      queued_.fetch_sub(1, std::memory_order_relaxed);

      Status st = ctx_.CheckStop("full disjunction");
      if (st.ok() && budget_.load(std::memory_order_relaxed) <= 0) {
        // Per-task budget gate: small subtrees rarely reach the in-tree
        // amortized check, so exhaustion is also enforced at task
        // granularity against the settled shared counter.
        st = BudgetExhaustedError(ctx_);
      }
#ifdef LAKEFUZZ_FAULT_POINTS
      // Task-spawn seam: a chaos-armed "fd/task" fault fails this task as a
      // real mid-enumeration error would (WorkerLoop returns void, so the
      // macro's return-propagation form cannot be used here).
      if (st.ok()) st = FaultInjector::Instance().Poke("fd/task");
#endif
      if (st.ok() && first_error_ok()) {
        // Tasks unwind every arena frame they open, but a Reset here makes
        // reuse unconditional: a task never inherits live bytes from a
        // predecessor on the same scratch.
        scratch->arena.Reset();
        ScopedSpan task_span(ctx_.tracer, "fd_task", ctx_.trace_parent);
        const uint64_t task_start = ThreadPool::NowNs();
        ComponentEnumerator enumerator(problem_, component_, budget_, scratch,
                                       ctx_, &split);
        auto result = enumerator.EnumerateTask(task);
        const uint64_t busy = ThreadPool::NowNs() - task_start;
        const uint64_t nodes = enumerator.nodes_used();
        task_span.AddAttr("nodes", static_cast<int64_t>(nodes));
        task_span.End();
        total_nodes_.fetch_add(nodes, std::memory_order_relaxed);
        // The grain gate reads these lock-free from inside enumerations;
        // exactness doesn't matter there, ordering even less.
        done_busy_ns_.fetch_add(busy, std::memory_order_relaxed);
        done_replay_ns_.fetch_add(enumerator.replay_ns(),
                                  std::memory_order_relaxed);
        done_tasks_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(mu_);
          profile_.AddTask(nodes, busy, enumerator.replay_ns());
          if (result.ok()) {
            for (auto& seg : *result) {
              if (!seg.tuples.empty()) segments_.push_back(std::move(seg));
            }
          }
        }
        if (!result.ok()) st = result.status();
      }
      if (!st.ok()) RecordError(st);

      bool done = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        done = --unfinished_ == 0;
      }
      if (done) cv_.notify_all();
    }
  }

  bool first_error_ok() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_.ok();
  }

  const FdProblem& problem_;
  const std::vector<uint32_t>& component_;
  std::atomic<int64_t>& budget_;
  const RequestContext& ctx_;
  const size_t workers_;
  SplitContext split_template_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<SubtreeTask> queue_;
  size_t unfinished_ = 0;
  Status first_error_ = Status::OK();
  std::vector<ResultSegment> segments_;
  FdTaskProfile profile_;  ///< guarded by mu_
  std::atomic<size_t> queued_{0};
  std::atomic<uint64_t> spawned_{0};
  std::atomic<uint64_t> total_nodes_{0};
  std::atomic<uint64_t> done_tasks_{0};
  std::atomic<uint64_t> done_busy_ns_{0};
  std::atomic<uint64_t> done_replay_ns_{0};
};

/// ResourceBudget::max_scratch_bytes gate, polled before every component: a
/// component may not start on scratch that already holds more arena bytes
/// than the budget allows.
Status ScratchBudgetStop(const RequestContext& ctx, size_t reserved_bytes) {
  if (ctx.budget.max_scratch_bytes == 0 ||
      reserved_bytes <= ctx.budget.max_scratch_bytes) {
    return Status::OK();
  }
  return Status::ResourceExhausted(
      "full disjunction scratch budget exhausted "
      "(ResourceBudget::max_scratch_bytes)");
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
  std::vector<std::vector<FdCodeTuple>> per_comp(comps.size());
  std::mutex err_mu;
  Status first_error = Status::OK();   // guarded by err_mu
  Status trunc_stop = Status::OK();    // guarded by err_mu (kTruncate stops)
  std::atomic<uint64_t> total_nodes{0};

  // One work lane per pool worker (one inline lane without a pool), each
  // with its own scratch: enumeration state is O(num_tuples) to zero, so it
  // is allocated once here, not once per component.
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  std::vector<FdScratch> scratches;
  scratches.reserve(workers);
  for (size_t i = 0; i < workers; ++i) scratches.emplace_back(*problem);

  // Intra-component parallelism: with a multi-worker pool, the biggest
  // components (a skewed lake often collapses into one giant component)
  // have their branch-and-exclude trees split across the whole pool instead
  // of serializing one worker. A component is "giant" when it is both
  // absolutely large and a big enough share of the total that
  // component-level parallelism would starve — at least 1/(2·workers) of
  // all tuples. Giants sit at the front of the size-sorted order, so they
  // run first — one at a time, all workers inside, on the same scratches —
  // and the long tail then fans out component-per-lane.
  size_t num_intra = 0;
  if (workers > 1) {
    const size_t total = problem->num_tuples();
    while (num_intra < comps.size()) {
      const size_t size = comps[num_intra]->size();
      if (size < options_.intra_component_min_size ||
          size * 2 * workers < total) {
        break;
      }
      ++num_intra;
    }
  }
  uint64_t intra_tasks = 0;
  FdTaskProfile task_profile;
  std::atomic<size_t> completed{0};
  Status stop = Status::OK();
  for (size_t i = 0; i < num_intra; ++i) {
    stop = ctx.CheckStop("full disjunction");
    if (stop.ok()) {
      // Every lane is idle between giants, and a giant runs on all of them.
      size_t reserved = 0;
      for (const FdScratch& s : scratches) {
        reserved += s.arena.bytes_reserved();
      }
      stop = ScratchBudgetStop(ctx, reserved);
    }
    if (!stop.ok()) break;
    ScopedSpan comp_span(enum_ctx, "fd_component");
    comp_span.AddAttr("tuples", static_cast<int64_t>(comps[i]->size()));
    comp_span.AddAttr("intra", int64_t{1});
    const RequestContext comp_ctx = enum_ctx.WithSpan(comp_span.id());
    uint64_t nodes = 0;
    auto res = IntraComponentRunner(*problem, *comps[i], workers, budget,
                                    comp_ctx)
                   .Run(pool, &scratches, &nodes, &intra_tasks,
                        &task_profile);
    comp_span.AddAttr("nodes", static_cast<int64_t>(nodes));
    total_nodes.fetch_add(nodes, std::memory_order_relaxed);
    if (!res.ok()) {
      stop = res.status();
      break;
    }
    per_comp[i] = std::move(res).value();
    completed.fetch_add(1, std::memory_order_relaxed);
  }
  stats->intra_tasks = intra_tasks;
  stats->task_profile = task_profile;
  if (!stop.ok() && !ctx.ShouldTruncate(stop.code())) return stop;

  if (stop.ok()) {
    MaybeParallelForWithLane(
        pool, comps.size() - num_intra, [&](size_t lane, size_t idx) {
          const size_t i = num_intra + idx;
          // Per-component checkpoint: once the token fires, the deadline
          // passes, or this lane's scratch outgrows the budget, the
          // remaining components become no-ops instead of enumerating.
          // Under kTruncate they count as skipped; otherwise the stop is the
          // request's error. Only this lane's arena is read: ArenaAllocator
          // is not thread-safe, and other lanes are mid-component.
          FdScratch& scratch = scratches[lane];
          Status cs = ctx.CheckStop("full disjunction");
          if (cs.ok()) {
            cs = ScratchBudgetStop(ctx, scratch.arena.bytes_reserved());
          }
          if (cs.ok()) {
            ScopedSpan comp_span(
                comps[i]->size() >= kComponentSpanMinTuples ? enum_ctx.tracer
                                                            : nullptr,
                "fd_component", enum_ctx.trace_parent);
            comp_span.AddAttr("tuples",
                              static_cast<int64_t>(comps[i]->size()));
            ComponentEnumerator enumerator(*problem, *comps[i], budget,
                                           &scratch, enum_ctx);
            auto res = enumerator.Enumerate();
            comp_span.AddAttr("nodes",
                              static_cast<int64_t>(enumerator.nodes_used()));
            total_nodes.fetch_add(enumerator.nodes_used(),
                                  std::memory_order_relaxed);
            if (res.ok()) {
              per_comp[i] = std::move(res).value();
              completed.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            cs = res.status();  // mid-component stop: the partial is discarded
          }
          std::lock_guard<std::mutex> lock(err_mu);
          if (ctx.ShouldTruncate(cs.code())) {
            if (trunc_stop.ok()) trunc_stop = cs;
          } else if (first_error.ok()) {
            first_error = cs;
          }
        });
    if (!first_error.ok()) return first_error;
    stop = trunc_stop;
  }
  if (!stop.ok()) {
    // Under kTruncate a deadline/budget stop keeps the components that
    // completed (mid-component partials are discarded; an FD component is
    // all-or-nothing). Cancellation always fails the request.
    stats->truncation.truncated = true;
    stats->truncation.stage = Stage::kFdEnumerate;
    stats->truncation.reason = stop.message();
    stats->truncation.components_completed =
        completed.load(std::memory_order_relaxed);
    stats->truncation.components_skipped =
        comps.size() - stats->truncation.components_completed;
  }
  stats->search_nodes = total_nodes.load();
  for (const FdScratch& s : scratches) {
    stats->arena_bytes_reserved += s.arena.bytes_reserved();
    stats->arena_peak_bytes += s.arena.peak_bytes();
  }
  stats->peak_rss_bytes = PeakRssBytes();

  // Zero-copy flatten into final component order: one exact reservation,
  // then pure moves.
  const uint64_t merge_start = ThreadPool::NowNs();
  std::vector<FdCodeTuple> code_tuples;
  size_t total_tuples = 0;
  for (const auto& tuples : per_comp) total_tuples += tuples.size();
  code_tuples.reserve(total_tuples);
  for (auto& tuples : per_comp) {
    for (auto& t : tuples) code_tuples.push_back(std::move(t));
  }
  stats->task_profile.merge_ns += ThreadPool::NowNs() - merge_start;
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
