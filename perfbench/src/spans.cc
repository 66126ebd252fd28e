#include "spans.h"

#include <cstdio>
#include <unordered_map>

#include "bench_util.h"

namespace perfbench {

int32_t SpanLog::Open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = NowNs();
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.request = request_;
  rec.thread = thread_;
  spans_.push_back(std::move(rec));
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int32_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

namespace {

/// The layer name of an engine stage span, or nullptr for spans the
/// benchmark does not attribute (see SpanLog::Import).
const char* EngineSpanName(const std::string& engine_name) {
  static const std::unordered_map<std::string, const char*> kNames = {
      {"admission_wait", "session.admission"},
      {"align", "match.align"},
      {"match", "core.match"},
      {"rewrite", "core.rewrite"},
      // The "fd" span's self time is tuple decoding.
      {"fd", "fd.stage"},
      {"fd_build", "fd.build"},
      {"fd_index", "fd.index"},
      {"fd_enumerate", "fd.enumerate"},
      {"fd_subsume", "fd.subsume"},
      {"emit", "fd.emit"},
      {"discover", "discovery.query"},
      {"discover_rank", "discovery.rank"},
      {"catalog_open", "catalog.open"},
      {"catalog_save", "catalog.save"},
  };
  auto it = kNames.find(engine_name);
  return it == kNames.end() ? nullptr : it->second;
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void SpanLog::Import(const lakefuzz::Tracer& tracer, int32_t parent) {
  // Tracer times count from the tracer's construction; shift them onto this
  // log's steady clock.
  const int64_t offset = NowNs() - static_cast<int64_t>(tracer.NowNs());
  // Engine span id -> index in this log; spans come parent-first.
  std::unordered_map<uint64_t, int32_t> index_of;
  for (const lakefuzz::Span& s : tracer.Spans()) {
    if (s.open) continue;
    int32_t at = parent;
    if (s.parent != 0) {
      auto it = index_of.find(s.parent);
      if (it == index_of.end()) continue;  // under a dropped span
      at = it->second;
    }
    if (s.name == "request") {
      index_of[s.id] = at;
      continue;
    }
    const char* name = EngineSpanName(s.name);
    if (name == nullptr) continue;
    SpanRecord rec;
    rec.name = name;
    rec.start_ns = static_cast<int64_t>(s.start_ns) + offset;
    rec.end_ns = rec.start_ns + static_cast<int64_t>(s.duration_ns);
    rec.parent = at;
    rec.request = request_;
    rec.thread = thread_;
    spans_.push_back(std::move(rec));
    index_of[s.id] = static_cast<int32_t>(spans_.size() - 1);
  }
}

SpanSummary Summarize(const std::vector<const SpanLog*>& logs) {
  SpanSummary out;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    // Children of one kept span run one after another, so the time they
    // cover is the sum of their durations.
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.name == "request") {
        out.covered_ms.push_back(child_ms[i]);
        ++out.requests;
        continue;
      }
      const double self = (s.end_ns - s.start_ns) / 1e6 - child_ms[i];
      out.self_ms[s.request][s.name] += self;
      out.layer_self_ms[LayerOf(s.name)] += self;
    }
  }
  return out;
}

double SpanSummary::Median(std::initializer_list<const char*> names) const {
  std::vector<double> samples;
  for (const auto& [request, by_name] : self_ms) {
    double sum = 0.0;
    bool any = false;
    for (const char* name : names) {
      auto it = by_name.find(name);
      if (it == by_name.end()) continue;
      sum += it->second;
      any = true;
    }
    if (any) samples.push_back(sum);
  }
  return perfbench::Median(std::move(samples));
}

double SpanSummary::Total(std::initializer_list<const char*> names) const {
  double sum = 0.0;
  for (const auto& [request, by_name] : self_ms) {
    for (const char* name : names) {
      auto it = by_name.find(name);
      if (it != by_name.end()) sum += it->second;
    }
  }
  return sum;
}

bool WriteSpansJson(const std::vector<const SpanLog*>& logs,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      // Span ids are "<thread>:<index>" so parents resolve across logs.
      std::fprintf(f,
                   "%s  {\"id\": \"%u:%zu\", \"parent\": %s%s%s, \"name\": "
                   "\"%s\", \"request\": %llu, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}",
                   first ? "" : ",\n", s.thread, i,
                   s.parent >= 0 ? "\"" : "",
                   s.parent >= 0
                       ? (std::to_string(s.thread) + ":" +
                          std::to_string(s.parent))
                             .c_str()
                       : "null",
                   s.parent >= 0 ? "\"" : "", s.name.c_str(),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
