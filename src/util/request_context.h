// Request lifecycle context: cancellation + deadline + resource budget.
//
// A RequestContext travels *down* the pipeline as one option field,
// generalizing the bare CancelToken the engine used to carry. Every
// cooperative checkpoint (matcher merge rounds, per-FD-component, the
// enumerator's amortized node check, discovery scoring, sink batches) calls
// CheckStop(), which surfaces ErrorCode::kCancelled for a fired token and
// ErrorCode::kDeadlineExceeded for an expired Deadline — distinct codes, so
// a server can tell "client went away" from "request was too slow".
//
// A ResourceBudget bounds the request's resource appetite (FD search nodes,
// result tuples, scratch arena bytes). What happens at exhaustion is the
// BudgetPolicy's call: kFail surfaces kResourceExhausted / kDeadlineExceeded
// as hard errors; kTruncate stops cleanly at the checkpoint and returns a
// *partial* result with a populated Truncation report instead of throwing
// completed work away.
//
// The same context carries the request's StageLedger: every stage records
// its wall time there, traced or not, so any request can be explained after
// the fact from the record it already carries.
#ifndef LAKEFUZZ_UTIL_REQUEST_CONTEXT_H_
#define LAKEFUZZ_UTIL_REQUEST_CONTEXT_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/cancellation.h"
#include "util/status.h"

namespace lakefuzz {

class Tracer;  // obs/trace.h; carried here as an opaque handle

/// A wall-clock bound on one request, measured on the steady clock (immune
/// to system-time jumps). A default-constructed Deadline is *unset*:
/// expired() is false forever and costs one branch to poll — the natural
/// "no deadline requested" value.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// A deadline `d` from now (e.g. Deadline::After(std::chrono::
  /// milliseconds(50))).
  template <typename Rep, typename Period>
  static Deadline After(std::chrono::duration<Rep, Period> d) {
    Deadline deadline;
    deadline.set_ = true;
    deadline.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(d);
    return deadline;
  }

  /// Convenience: a deadline `ms` milliseconds from now.
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  bool set() const { return set_; }

  /// True once the deadline passed. False-fast for unset deadlines (no
  /// clock read).
  bool expired() const { return set_ && Clock::now() >= at_; }

 private:
  bool set_ = false;
  Clock::time_point at_{};
};

/// What to do when a deadline or resource budget runs out mid-request.
enum class BudgetPolicy {
  /// Surface kDeadlineExceeded / kResourceExhausted as a hard error; all
  /// partial work is discarded. The default — matches CancelToken semantics.
  kFail,
  /// Stop cleanly at the checkpoint and return the partial result built so
  /// far, with a populated Truncation report. Cancellation still fails hard
  /// (a cancelled caller does not want a partial answer).
  kTruncate,
};

/// Per-request resource ceilings. Zero means unlimited (the default), so a
/// default-constructed budget changes nothing.
struct ResourceBudget {
  /// Max FD search nodes across the whole request (tightens
  /// FdOptions::max_search_nodes; exhaustion is kResourceExhausted, not the
  /// legacy kFailedPrecondition).
  uint64_t max_fd_nodes = 0;
  /// Max result tuples surviving subsumption; under kTruncate the result is
  /// cut to the first `max_result_tuples` in deterministic output order.
  uint64_t max_result_tuples = 0;
  /// Max bytes of FD scratch-arena reservation (accounted via
  /// FdStats::arena_bytes_reserved between components).
  uint64_t max_scratch_bytes = 0;

  bool any_set() const {
    return max_fd_nodes > 0 || max_result_tuples > 0 || max_scratch_bytes > 0;
  }
};

/// Degradation report for a request that stopped early under
/// BudgetPolicy::kTruncate: which stage was cut, why, and how much of the
/// work completed. truncated == false means the result is complete.
struct Truncation {
  bool truncated = false;
  Stage stage = Stage::kFdEnumerate;  ///< stage that was cut short
  std::string reason;                 ///< e.g. "deadline exceeded"
  size_t components_completed = 0;    ///< FD components fully enumerated
  size_t components_skipped = 0;      ///< FD components dropped
  size_t tuples_emitted = 0;          ///< result tuples kept/streamed

  /// Folds another stage's truncation into this one. The first truncation
  /// wins the stage/reason slot; counters accumulate.
  void Merge(const Truncation& other) {
    if (!other.truncated) return;
    if (!truncated) {
      *this = other;
      return;
    }
    components_completed += other.components_completed;
    components_skipped += other.components_skipped;
    tuples_emitted += other.tuples_emitted;
  }
};

/// The one stage record of a request: wall time and run count per Stage, in
/// a fixed array (no allocation). StageScope (obs/trace.h) is its only
/// writer, on the request thread. The report, the per-stage latency
/// histograms and the slow-request log all read it.
class StageLedger {
 public:
  void Record(Stage stage, uint64_t wall_ns) {
    Entry& entry = entries_[static_cast<size_t>(stage)];
    entry.wall_ns += wall_ns;
    ++entry.runs;
  }

  uint64_t wall_ns(Stage stage) const {
    return entries_[static_cast<size_t>(stage)].wall_ns;
  }
  /// How many times the stage ran; 0 = it never started.
  uint32_t runs(Stage stage) const {
    return entries_[static_cast<size_t>(stage)].runs;
  }
  double seconds(Stage stage) const {
    return static_cast<double>(wall_ns(stage)) * 1e-9;
  }

 private:
  struct Entry {
    uint64_t wall_ns = 0;
    uint32_t runs = 0;
  };
  std::array<Entry, kNumStages> entries_{};
};

/// Everything a pipeline stage needs to decide "should I keep going, and
/// what do I do if not": cancel token, deadline, budget, policy — plus where
/// to record what it did (tracer, stage ledger, progress). Cheap to copy
/// (the token is a shared_ptr, the rest PODs and pointers); carried by value
/// in option structs exactly like CancelToken was.
class RequestContext {
 public:
  RequestContext() = default;

  /// Implicit from a bare CancelToken: pre-RequestContext call sites that
  /// passed a token keep compiling, with no deadline and no budget.
  RequestContext(CancelToken cancel)  // NOLINT(runtime/explicit)
      : cancel(std::move(cancel)) {}

  CancelToken cancel;
  Deadline deadline;
  ResourceBudget budget;
  BudgetPolicy policy = BudgetPolicy::kFail;
  /// Request tracing (obs/trace.h): stages parented under `trace_parent`
  /// open child spans on `tracer`. Null = tracing off (the default; costs
  /// one pointer test per stage seam). Observation-only by contract —
  /// pipeline code must never branch on tracer state, so traced and
  /// untraced runs produce byte-identical results. Not owned; must outlive
  /// the request.
  Tracer* tracer = nullptr;
  uint64_t trace_parent = 0;
  /// The request's stage record and progress callback, both written on the
  /// request thread only. Null = not recorded / no progress. Not owned.
  StageLedger* ledger = nullptr;
  const ProgressFn* progress = nullptr;

  /// The checkpoint poll: kCancelled for a fired token, kDeadlineExceeded
  /// for an expired deadline, OK otherwise. `what` names the stage for the
  /// error message ("full disjunction", "value matching", ...).
  Status CheckStop(const char* what) const {
    if (cancel.cancelled()) {
      return Status::Cancelled(std::string(what) + " cancelled");
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded(std::string(what) +
                                      " deadline exceeded");
    }
    return Status::OK();
  }

  /// True when a stop with this code should degrade to a partial result
  /// instead of failing the request. Cancellation never truncates.
  bool ShouldTruncate(ErrorCode code) const {
    return policy == BudgetPolicy::kTruncate &&
           (code == ErrorCode::kDeadlineExceeded ||
            code == ErrorCode::kResourceExhausted);
  }

  /// A copy with the deadline and budget stripped: used for cleanup work
  /// (e.g. subsuming an already-truncated partial result) that must still
  /// honor cancellation but must not be aborted by the already-expired
  /// deadline it is cleaning up after.
  RequestContext CancelOnly() const {
    // Observation survives degradation: cleanup work is still timed,
    // traced and reported (it changes no behavior, only visibility).
    RequestContext ctx = *this;
    ctx.deadline = Deadline();
    ctx.budget = ResourceBudget();
    ctx.policy = BudgetPolicy::kFail;
    return ctx;
  }

  /// A copy re-parented under `span_id`: how a stage hands its own span to
  /// the sub-stages it invokes.
  RequestContext WithSpan(uint64_t span_id) const {
    RequestContext ctx = *this;
    ctx.trace_parent = span_id;
    return ctx;
  }
};

/// Emits a per-unit progress event when the context carries a callback.
inline void ReportProgress(const RequestContext& ctx, Stage stage,
                           size_t done, size_t total) {
  if (ctx.progress != nullptr && *ctx.progress) {
    (*ctx.progress)(ProgressEvent{stage, done, total});
  }
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_UTIL_REQUEST_CONTEXT_H_
