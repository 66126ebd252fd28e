// Span recording for the traced run. Most spans come from the engine's own
// request tracer (obs/trace.h): the benchmark passes a Tracer with each
// traced call and imports the stage spans it recorded, renamed to layer
// names. The benchmark records spans itself only where the engine has
// none: the "request" root around each traced unit of work, and the steps
// of RegisterCsv and Unregister. Each client thread owns one SpanLog (no locks on
// the hot path); logs are merged and written out when the run ends.
//
// A span's layer is its name up to the first '.': "fd.build" belongs to
// "fd". The root span of every traced request is named "request"; its
// direct children are layer spans. A layer's self time is its spans'
// durations minus the time their child spans cover.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same log, -1 for a root.
  int32_t parent = -1;
  uint64_t request = 0;
  uint32_t thread = 0;
};

/// Work counters recorded at a layer boundary, summed per name.
using Counters = std::map<std::string, double>;

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  /// Sets the request id stamped on spans opened from now on.
  void SetRequest(uint64_t request) { request_ = request; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Open(const char* name);
  /// Closes the innermost open span, `index` (spans nest: RAII order).
  void Close(int32_t index);

  /// Appends the closed spans `tracer` recorded under span `parent` of this
  /// log (-1: as roots), renamed to layer names ("fd_build" -> "fd.build";
  /// the table is in spans.cc). The engine's own
  /// "request" root is dropped and its children lifted to `parent`. Spans
  /// without a layer name — the per-component and per-task FD spans, which
  /// run concurrently on pool threads inside fd_enumerate — are dropped
  /// with their descendants, so every kept span's children run one after
  /// another.
  void Import(const lakefuzz::Tracer& tracer, int32_t parent);

  /// Adds `value` to counter `name` (per-log totals).
  void Count(const std::string& name, double value) {
    counters_[name] += value;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const Counters& counters() const { return counters_; }

 private:
  uint32_t thread_;
  uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
  Counters counters_;
};

/// RAII span recorded into `log`.
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log), index_(log->Open(name)) {}
  ~Span() { log_->Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Aggregates over merged logs.
struct SpanSummary {
  /// Self time by span name, per request id (ms).
  std::map<uint64_t, std::map<std::string, double>> self_ms;
  /// Self time per layer, summed over all requests (ms).
  std::map<std::string, double> layer_self_ms;
  /// Time covered by layer spans per request (the root's children), one
  /// entry per "request" root.
  std::vector<double> covered_ms;
  size_t requests = 0;

  /// Median, over the requests that recorded any span in `names`, of the
  /// request's summed self time in those spans (0 when none did).
  double Median(std::initializer_list<const char*> names) const;
  /// Sum over all requests of the self time in `names`.
  double Total(std::initializer_list<const char*> names) const;
};
SpanSummary Summarize(const std::vector<const SpanLog*>& logs);

/// Writes every span as JSON ({"spans": [...]}) to `path`.
bool WriteSpansJson(const std::vector<const SpanLog*>& logs,
                    const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
