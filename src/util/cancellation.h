// Request-scoped cancellation and progress plumbing.
//
// A LakeEngine request may run for minutes on a large lake; callers need to
// abort it (client disconnected, deadline passed) and to observe where it
// is. Both travel *down* the pipeline on RequestContext: CancelToken is
// polled at cooperative checkpoints (between matcher merge rounds, per FD
// component, inside the enumerator's amortized budget check), and
// ProgressFn is invoked at stage boundaries. Neither interrupts a running
// kernel; a fired token surfaces as Status::Cancelled (ErrorCode::kCancelled)
// from the nearest checkpoint, with all partial work discarded. Deadlines
// and resource budgets ride the same checkpoints via RequestContext
// (util/request_context.h), which can instead degrade to a partial result
// under BudgetPolicy::kTruncate.
#ifndef LAKEFUZZ_UTIL_CANCELLATION_H_
#define LAKEFUZZ_UTIL_CANCELLATION_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

namespace lakefuzz {

/// Shared cancellation flag for one request. Copies are cheap and observe
/// the same flag, so the caller keeps one copy to fire and the pipeline
/// carries another through its option structs.
///
/// A default-constructed token is *inert*: it can never be cancelled and
/// costs nothing to copy — the natural "no cancellation requested" value.
/// Cancellable tokens come from CancelToken::Create().
class CancelToken {
 public:
  CancelToken() = default;

  /// A live token whose Cancel() is observed by all copies.
  static CancelToken Create() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// Requests cancellation. Thread-safe; no-op on an inert token.
  void Cancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_release);
  }

  /// True once Cancel() was called on any copy. Thread-safe.
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

  /// True for tokens from Create() (inert default-constructed ones return
  /// false).
  bool can_cancel() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Request stages, in pipeline order. Each one is timed into the request's
/// StageLedger (util/request_context.h) and traced as a span named
/// StageName(stage). kDiscover, kAlign, kFdBuild, kFdEnumerate and
/// kFdSubsume report progress (0, 1) on entry and (1, 1) on completion;
/// kMatch, kRewrite and kEmit report per unit; kAdmissionWait, kFd and
/// kFdIndex report none.
enum class Stage {
  kAdmissionWait,  ///< waiting for an engine admission slot
  kDiscover,       ///< unionable-candidate search over the discovery index
  kAlign,          ///< column alignment (holistic or by-name)
  kMatch,          ///< fuzzy value matching, one unit per universal column
  kRewrite,        ///< rewriting matched values to representatives
  kFd,             ///< the whole FD stage: build through emit
  kFdBuild,        ///< outer-union construction (FdProblem::BuildInterned
                   ///< on the engine path)
  kFdIndex,        ///< dictionary + CSR join graph + components: its own
                   ///< stage, outside kFdEnumerate's events
  kFdEnumerate,    ///< per-component enumeration
  kFdSubsume,      ///< subsumption elimination
  kEmit,           ///< batched decode into the sink
};

inline constexpr size_t kNumStages = static_cast<size_t>(Stage::kEmit) + 1;

/// The stage's span, metric and log name ("fd_enumerate", ...).
inline std::string_view StageName(Stage stage) {
  static constexpr const char* kNames[] = {
      "admission_wait", "discover",   "align",    "match",
      "rewrite",        "fd",         "fd_build", "fd_index",
      "fd_enumerate",   "fd_subsume", "emit"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kNumStages);
  return kNames[static_cast<size_t>(stage)];
}

/// One progress observation: done ∈ [0, total] (see Stage for which
/// stages report what).
struct ProgressEvent {
  Stage stage = Stage::kAlign;
  size_t done = 0;
  size_t total = 0;
};

/// Invoked synchronously on the thread driving the request — never
/// concurrently for one request — so an implementation may fire the
/// request's CancelToken or touch request-local state without locking.
/// Keep it cheap; it sits on stage boundaries of the hot path. Carried on
/// RequestContext::progress.
using ProgressFn = std::function<void(const ProgressEvent&)>;

}  // namespace lakefuzz

#endif  // LAKEFUZZ_UTIL_CANCELLATION_H_
