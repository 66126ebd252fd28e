#include "obs/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

namespace lakefuzz {
namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// span names and attribute strings are short identifiers, not documents.
void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendMs(std::string* out, double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  *out += buf;
}

/// Aggregation node for FlameSummary: one entry per distinct name *path*
/// through the tree, children ordered by first occurrence.
struct FlameNode {
  std::string name;
  size_t count = 0;
  uint64_t total_ns = 0;
  std::vector<std::unique_ptr<FlameNode>> children;

  FlameNode* Child(const std::string& child_name) {
    for (auto& c : children) {
      if (c->name == child_name) return c.get();
    }
    children.push_back(std::make_unique<FlameNode>());
    children.back()->name = child_name;
    return children.back().get();
  }
};

/// For the stages without per-unit progress that report (0, 1) on entry
/// and (1, 1) on completion (see Stage): fires the entry event and returns
/// the callback for the completion event. Null for every other stage.
const ProgressFn* FireEntry(const RequestContext& ctx, Stage stage) {
  if (ctx.progress == nullptr || !*ctx.progress) return nullptr;
  if (stage != Stage::kDiscover && stage != Stage::kAlign &&
      stage != Stage::kFdBuild && stage != Stage::kFdEnumerate &&
      stage != Stage::kFdSubsume) {
    return nullptr;
  }
  (*ctx.progress)(ProgressEvent{stage, 0, 1});
  return ctx.progress;
}

void PrintFlame(const FlameNode& node, size_t depth, std::string* out) {
  std::string label(depth * 2, ' ');
  label += node.name;
  if (node.count > 1) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " x%zu", node.count);
    label += buf;
  }
  if (label.size() < 44) label.resize(44, ' ');
  *out += label;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %10.3f ms\n",
                static_cast<double>(node.total_ns) / 1e6);
  *out += buf;
  for (const auto& c : node.children) PrintFlame(*c, depth + 1, out);
}

}  // namespace

Tracer::Tracer(TraceOptions options)
    : epoch_ns_(SteadyNowNs()), options_(options) {}

uint64_t Tracer::NowNs() const { return SteadyNowNs() - epoch_ns_; }

uint64_t Tracer::BeginSpan(const char* name, uint64_t parent) {
  const uint64_t now = NowNs();
  const uint64_t thread_hash =
      static_cast<uint64_t>(std::hash<std::thread::id>{}(
          std::this_thread::get_id()));
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= options_.max_spans) {
    ++dropped_;
    return 0;
  }
  auto [it, inserted] =
      tids_.emplace(thread_hash, static_cast<uint32_t>(tids_.size()));
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.start_ns = now;
  span.tid = it->second;
  span.open = true;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::EndSpan(uint64_t id) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  Span& span = spans_[id - 1];
  if (!span.open) return;
  span.open = false;
  span.duration_ns = now >= span.start_ns ? now - span.start_ns : 0;
}

void Tracer::AddAttr(uint64_t id, const char* key, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  SpanAttr attr;
  attr.key = key;
  attr.num = value;
  spans_[id - 1].attrs.push_back(std::move(attr));
}

void Tracer::AddAttr(uint64_t id, const char* key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  SpanAttr attr;
  attr.key = key;
  attr.is_string = true;
  attr.str = std::move(value);
  spans_[id - 1].attrs.push_back(std::move(attr));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string Tracer::ToChromeJson() const {
  const std::vector<Span> spans = Spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (span.open) continue;  // still running at export time
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, span.name);
    out += "\",\"ph\":\"X\",\"ts\":";
    AppendMs(&out, static_cast<double>(span.start_ns) / 1e3);
    out += ",\"dur\":";
    AppendMs(&out, static_cast<double>(span.duration_ns) / 1e3);
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"pid\":%" PRIu64 ",\"tid\":%u",
                  options_.request_id, span.tid);
    out += buf;
    out += ",\"args\":{\"id\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ",\"parent\":%" PRIu64,
                  span.id, span.parent);
    out += buf;
    for (const SpanAttr& attr : span.attrs) {
      out += ",\"";
      AppendJsonEscaped(&out, attr.key);
      out += "\":";
      if (attr.is_string) {
        out += "\"";
        AppendJsonEscaped(&out, attr.str);
        out += "\"";
      } else {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(attr.num));
        out += buf;
      }
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string Tracer::FlameSummary() const {
  const std::vector<Span> spans = Spans();
  // Spans get ids in BeginSpan order, so every parent precedes its
  // children — one forward pass resolves each span's aggregation node.
  FlameNode root;
  std::vector<FlameNode*> node_of(spans.size() + 1, nullptr);
  for (const Span& span : spans) {
    FlameNode* parent =
        (span.parent != 0 && span.parent < span.id &&
         node_of[span.parent] != nullptr)
            ? node_of[span.parent]
            : &root;
    FlameNode* node = parent->Child(span.name);
    ++node->count;
    node->total_ns += span.duration_ns;
    node_of[span.id] = node;
  }
  std::string out;
  for (const auto& c : root.children) PrintFlame(*c, 0, &out);
  return out;
}

// Members initialize in declaration order: the entry event fires before the
// span opens and the clock starts, so a slow callback is not billed to the
// stage. Stage names are string literals, so the view is NUL-terminated.
StageScope::StageScope(const RequestContext& ctx, Stage stage)
    : ledger_(ctx.ledger),
      progress_(FireEntry(ctx, stage)),
      stage_(stage),
      span_(ctx, StageName(stage).data()),
      start_ns_(SteadyNowNs()) {}

void StageScope::Close() {
  if (!open_) return;
  open_ = false;
  elapsed_ns_ = SteadyNowNs() - start_ns_;
  span_.End();
  if (ledger_ != nullptr) ledger_->Record(stage_, elapsed_ns_);
}

uint64_t StageScope::End() {
  if (open_) {
    Close();
    if (progress_ != nullptr) (*progress_)(ProgressEvent{stage_, 1, 1});
  }
  return elapsed_ns_;
}

std::string SlowRequestLine(const SlowLogInfo& info,
                            const StageLedger& stages) {
  char buf[160];
  std::string out = "slow_request";
  std::snprintf(buf, sizeof(buf),
                " id=%" PRIu64 " mode=%s total_ms=%.1f threshold_ms=%.1f",
                info.request_id, info.mode.c_str(), info.total_ms,
                info.threshold_ms);
  out += buf;
  out += " error=";
  out += info.error.empty() ? "ok" : info.error;
  out += info.truncated ? " truncated=1" : " truncated=0";
  out += " tables=";
  for (size_t i = 0; i < info.tables.size(); ++i) {
    if (i > 0) out += ",";
    out += info.tables[i];
  }
  out += " stages=[";
  bool first = true;
  for (Stage stage : {Stage::kAdmissionWait, Stage::kDiscover, Stage::kAlign,
                      Stage::kMatch, Stage::kRewrite, Stage::kFd}) {
    if (stages.runs(stage) == 0) continue;
    if (!first) out += " ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%s=%.1f", StageName(stage).data(),
                  static_cast<double>(stages.wall_ns(stage)) / 1e6);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace lakefuzz
