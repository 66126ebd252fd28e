// Request tracing: per-request trees of timed spans.
//
// A Tracer collects Spans — steady-clock (start, duration) intervals named
// after pipeline stages, with integer/string attributes for stage counters
// (nodes, tuples, cache hits). Spans are opened via the RAII ScopedSpan at
// stage seams and carried down the pipeline on RequestContext
// (ctx.tracer + ctx.trace_parent), so they compose with deadlines and
// cancellation without any extra plumbing: a stage that already receives a
// RequestContext can open a child span.
//
// Tracing is observation-only by contract: no pipeline code may branch on
// tracer state, so results are byte-identical with tracing on or off (the
// obs tests lock this at 1/2/8 threads). Spans open/close only at stage
// boundaries — O(stages + components + tasks) per request, never per
// search node — so one mutex-protected append per span is cheap relative
// to the work it brackets, and TSan-clean by construction. A null tracer
// costs one pointer test per seam.
//
// Pipeline stages open through StageScope, which times the stage into the
// request's StageLedger whether or not a tracer is attached; the span tree
// adds per-component and per-task detail on top.
//
// Exports: Chrome trace_event JSON (load in chrome://tracing or
// https://ui.perfetto.dev), a human-readable flame summary, and
// SlowRequestLine() building the threshold-gated structured log line from
// the stage ledger.
#ifndef LAKEFUZZ_OBS_TRACE_H_
#define LAKEFUZZ_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/request_context.h"

namespace lakefuzz {

struct TraceOptions {
  /// Request id stamped into the export (Chrome `pid`, slow-log `id=`).
  uint64_t request_id = 0;
  /// Span-count cap: BeginSpan past the cap returns the null id and bumps
  /// dropped_spans() instead of growing without bound. The default is far
  /// above a normal request (spans are per stage/component/task, not per
  /// node) — it exists to bound pathological component counts.
  size_t max_spans = 100000;
};

/// One attribute on a span: integer counters (nodes, tuples, hits) or short
/// strings (mode, table name).
struct SpanAttr {
  std::string key;
  bool is_string = false;
  int64_t num = 0;
  std::string str;
};

/// One completed (or still-open) span. Times are steady-clock nanoseconds
/// relative to the tracer's construction; duration_ns == 0 with open == true
/// means EndSpan has not run yet (e.g. exported mid-request).
struct Span {
  uint64_t id = 0;      ///< 1-based; 0 is the null/"no span" id
  uint64_t parent = 0;  ///< parent span id, 0 = root
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t tid = 0;  ///< dense per-tracer thread index (0 = first seen)
  bool open = false;
  std::vector<SpanAttr> attrs;
};

class Tracer {
 public:
  explicit Tracer(TraceOptions options = TraceOptions());

  /// Opens a span; returns its id (0 when the span cap is hit — the null
  /// id, accepted and ignored by every other method). Thread-safe.
  uint64_t BeginSpan(const char* name, uint64_t parent = 0);
  /// Closes `id`, fixing its duration. No-op for the null id.
  void EndSpan(uint64_t id);
  void AddAttr(uint64_t id, const char* key, int64_t value);
  void AddAttr(uint64_t id, const char* key, std::string value);

  /// Steady-clock nanoseconds since construction (the span clock).
  uint64_t NowNs() const;

  /// Snapshot of all spans recorded so far, in BeginSpan order.
  std::vector<Span> Spans() const;
  size_t span_count() const;
  uint64_t dropped_spans() const;
  const TraceOptions& options() const { return options_; }

  /// Chrome trace_event JSON: one complete ("ph":"X") event per closed
  /// span, microsecond timestamps, pid = request_id, tid = dense thread
  /// index, attributes under "args". Loadable in chrome://tracing and
  /// Perfetto. Deterministic given the same spans.
  std::string ToChromeJson() const;

  /// Indented per-path aggregation (name path → count, total ms), ordered
  /// by first occurrence:
  ///   request                             12.3 ms
  ///     align                              0.4 ms
  ///     fd                                 9.8 ms
  ///       fd_task x16                      9.1 ms
  std::string FlameSummary() const;

 private:
  uint64_t epoch_ns_;  ///< steady-clock origin
  TraceOptions options_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<uint64_t, uint32_t> tids_;  ///< thread hash → dense id
  uint64_t dropped_ = 0;
};

/// RAII span handle: opens on construction (when the tracer is non-null),
/// closes on destruction or explicit End(). The null state
/// (default-constructed, null tracer, or cap-dropped span) makes every
/// method a no-op, so instrumentation sites need no branching.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->BeginSpan(name, parent) : 0) {}
  /// The common pipeline form: parented under the context's current span.
  ScopedSpan(const RequestContext& ctx, const char* name)
      : ScopedSpan(ctx.tracer, name, ctx.trace_parent) {}

  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddAttr(const char* key, int64_t value) {
    if (tracer_ != nullptr && id_ != 0) tracer_->AddAttr(id_, key, value);
  }
  void AddAttr(const char* key, std::string value) {
    if (tracer_ != nullptr && id_ != 0) {
      tracer_->AddAttr(id_, key, std::move(value));
    }
  }

  /// Closes the span early (before scope exit).
  void End() {
    if (tracer_ != nullptr && id_ != 0) tracer_->EndSpan(id_);
    tracer_ = nullptr;
    id_ = 0;
  }

  uint64_t id() const { return id_; }
  bool active() const { return id_ != 0; }

 private:
  Tracer* tracer_ = nullptr;
  uint64_t id_ = 0;
};

/// RAII timer for one request stage — the only way a Stage is timed. It
/// takes two steady-clock samples and writes one entry into ctx.ledger (when
/// set). With a tracer attached it also opens the stage's span, named
/// StageName(stage) and parented under ctx.trace_parent. For the stages
/// without per-unit progress it fires (0, 1) on construction and (1, 1)
/// from End(); a scope destroyed without End() (an early error return)
/// still records its time and closes its span, but reports no completion.
/// Construct and end it on the request thread.
class StageScope {
 public:
  StageScope(const RequestContext& ctx, Stage stage);
  ~StageScope() { Close(); }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  void AddAttr(const char* key, int64_t value) { span_.AddAttr(key, value); }
  void AddAttr(const char* key, std::string value) {
    span_.AddAttr(key, std::move(value));
  }
  /// The stage's span id, for re-parenting sub-stages (RequestContext::
  /// WithSpan); 0 when untraced.
  uint64_t span_id() const { return span_.id(); }

  /// Completes the stage; returns its wall time in nanoseconds.
  uint64_t End();

 private:
  void Close();

  StageLedger* ledger_;
  const ProgressFn* progress_;  ///< null unless entry/completion is reported
  Stage stage_;
  ScopedSpan span_;
  uint64_t start_ns_;
  uint64_t elapsed_ns_ = 0;
  bool open_ = true;
};

/// What the slow-request log needs beyond the stage ledger.
struct SlowLogInfo {
  uint64_t request_id = 0;
  std::string mode;                 ///< "integrate" / "sink" / "discover+integrate"
  std::vector<std::string> tables;  ///< request table set
  double total_ms = 0.0;
  double threshold_ms = 0.0;
  std::string error;  ///< canonical error-code name; "ok" on success
  bool truncated = false;
};

/// One structured slow-request line, e.g.:
///   slow_request id=7 mode=integrate total_ms=812.4 threshold_ms=500
///   error=ok truncated=0 tables=a,b,c stages=[align=3.1 match=400.2 fd=401.0]
/// The per-stage breakdown lists the top-level stages (admission_wait,
/// discover, align, match, rewrite, fd) that ran, in milliseconds, from the
/// request's stage ledger — traced or not.
std::string SlowRequestLine(const SlowLogInfo& info,
                            const StageLedger& stages);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_OBS_TRACE_H_
