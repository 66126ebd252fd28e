// Shared helpers for the paper-reproduction benchmark binaries.
#ifndef LAKEFUZZ_BENCH_BENCH_COMMON_H_
#define LAKEFUZZ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "assignment/parallel_cost.h"
#include "core/value_matcher.h"
#include "datagen/autojoin.h"
#include "metrics/pair_eval.h"
#include "metrics/prf.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {

/// Per-run counters a benchmark can accumulate alongside its quality score.
struct BenchRunStats {
  /// Wall time of each timed unit (per integration set, per repetition, ...)
  /// in milliseconds; percentiles are computed over these.
  std::vector<double> unit_ms;
  size_t cost_evaluations = 0;
  size_t embedding_cache_hits = 0;
  size_t embedding_cache_misses = 0;
};

/// Runs the Match Values component over one Auto-Join set and scores the
/// predicted cross-column value pairs against ground truth — the unit of
/// the paper's Table 1 evaluation. When `run_stats` is non-null, the set's
/// wall time and matcher counters are accumulated into it.
inline Prf EvaluateAutoJoinSet(const AutoJoinSet& set,
                               const ValueMatcherOptions& opts,
                               BenchRunStats* run_stats = nullptr) {
  ValueMatcher matcher(opts);
  Stopwatch watch;
  auto result = matcher.MatchColumns(set.columns);
  double elapsed_ms = watch.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "matcher failed on %s: %s\n", set.name.c_str(),
                 result.status().ToString().c_str());
    return Prf{};
  }
  if (run_stats != nullptr) {
    run_stats->unit_ms.push_back(elapsed_ms);
    run_stats->cost_evaluations += result->stats.cost_evaluations;
    run_stats->embedding_cache_hits += result->stats.embedding_cache_hits;
    run_stats->embedding_cache_misses += result->stats.embedding_cache_misses;
  }
  std::set<ItemPair> predicted;
  for (const auto& [a, b] : CrossColumnPairs(*result)) {
    predicted.insert(MakePair(ValueItemId(a.first, a.second),
                              ValueItemId(b.first, b.second)));
  }
  return EvaluatePairs(predicted, set.GroundTruthPairs());
}

/// Largest thread count the benchmark flags accept — a typo must not
/// request 2^64 workers.
inline constexpr size_t kMaxBenchThreads = 256;

/// Parses one thread-count token: an integer in [0, kMaxBenchThreads]
/// (0 = hardware concurrency). Returns false on malformed or out-of-range
/// input. The single validator behind --threads and --scale_threads.
inline bool ParseThreadCount(const std::string& token, size_t* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || token[0] == '-' ||
      parsed > kMaxBenchThreads) {
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

/// Reads the --threads flag through ParseThreadCount; invalid values get a
/// stderr note and the default.
inline size_t ParseThreadsFlag(const Flags& flags, size_t def = 1) {
  std::string raw = flags.GetString("threads", std::to_string(def));
  size_t threads = def;
  if (!ParseThreadCount(raw, &threads)) {
    std::fprintf(stderr, "--threads=%s invalid (want an integer in [0, %zu]); using %zu\n",
                 raw.c_str(), kMaxBenchThreads, def);
    return def;
  }
  return threads;
}

/// The pool a thread-count flag asks for: ResolveNumThreads(threads)
/// workers, or null (serial) when that is 1.
inline std::unique_ptr<ThreadPool> MakeThreadsPool(size_t threads) {
  const size_t n = ResolveNumThreads(threads);
  return n > 1 ? std::make_unique<ThreadPool>(n) : nullptr;
}

/// Hardware context of a benchmark run, recorded into every artifact so a
/// flat speedup curve is attributable: a sweep to 8 threads on a container
/// granted 1 core *cannot* show speedups, and the artifact now says so
/// instead of looking like a regression. `cores_granted` is the scheduler
/// affinity count (cgroup/taskset-aware on Linux), which on shared CI
/// runners is often far below `hardware_concurrency`.
struct HardwareInfo {
  size_t hardware_concurrency = 0;
  size_t cores_granted = 0;
};

inline HardwareInfo QueryHardware() {
  HardwareInfo hw;
  hw.hardware_concurrency = std::thread::hardware_concurrency();
  hw.cores_granted = hw.hardware_concurrency;
#if defined(__linux__)
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    hw.cores_granted = static_cast<size_t>(CPU_COUNT(&mask));
  }
#endif
  return hw;
}

/// q-th percentile (q in [0,1]) by linear interpolation; 0 when empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = static_cast<size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// Collects per-configuration benchmark records and renders them as a JSON
/// object `{"hardware": {...}, "records": [...]}` — the machine-readable
/// artifact (--json_out) that tracks the perf trajectory across PRs. The
/// hardware block makes scaling numbers interpretable (bench/compare_bench.py
/// refuses to enforce speedup gates recorded on a core-starved machine);
/// `samples` per record makes total_s interpretable (it sums that many timed
/// units, so rep-count changes can't masquerade as regressions).
class BenchJsonWriter {
 public:
  struct Record {
    std::string name;
    size_t threads = 1;
    /// Number of timed units behind the percentiles (and summed in total_s).
    size_t samples = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double mean_ms = 0.0;
    double total_s = 0.0;
    size_t cost_evaluations = 0;
    size_t embedding_cache_hits = 0;
    size_t embedding_cache_misses = 0;
    /// Free-form numeric extras (f1, output tuples, ...), emitted in order.
    std::vector<std::pair<std::string, double>> extra;
  };

  BenchJsonWriter() : hardware_(QueryHardware()) {}

  void Add(Record record) { records_.push_back(std::move(record)); }

  void AddFromStats(const std::string& name, size_t threads,
                    const BenchRunStats& stats,
                    std::vector<std::pair<std::string, double>> extra = {}) {
    Record rec;
    rec.name = name;
    rec.threads = threads;
    rec.samples = stats.unit_ms.size();
    rec.p50_ms = Percentile(stats.unit_ms, 0.50);
    rec.p95_ms = Percentile(stats.unit_ms, 0.95);
    for (double ms : stats.unit_ms) rec.total_s += ms / 1e3;
    if (rec.samples > 0) {
      rec.mean_ms = rec.total_s * 1e3 / static_cast<double>(rec.samples);
    }
    rec.cost_evaluations = stats.cost_evaluations;
    rec.embedding_cache_hits = stats.embedding_cache_hits;
    rec.embedding_cache_misses = stats.embedding_cache_misses;
    rec.extra = std::move(extra);
    Add(std::move(rec));
  }

  std::string Render() const {
    std::string out = StrFormat(
        "{\n\"hardware\": {\"hardware_concurrency\": %zu, "
        "\"cores_granted\": %zu},\n\"records\": [\n",
        hardware_.hardware_concurrency, hardware_.cores_granted);
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out += StrFormat(
          "  {\"name\": \"%s\", \"threads\": %zu, \"samples\": %zu, "
          "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"mean_ms\": %.4f, "
          "\"total_s\": %.4f, \"cost_evaluations\": %zu, "
          "\"embedding_cache_hits\": %zu, \"embedding_cache_misses\": %zu",
          r.name.c_str(), r.threads, r.samples, r.p50_ms, r.p95_ms, r.mean_ms,
          r.total_s, r.cost_evaluations, r.embedding_cache_hits,
          r.embedding_cache_misses);
      for (const auto& [key, value] : r.extra) {
        out += StrFormat(", \"%s\": %.6f", key.c_str(), value);
      }
      out += i + 1 < records_.size() ? "},\n" : "}\n";
    }
    out += "]\n}\n";
    return out;
  }

  /// Writes the array to `path`; returns false (with a stderr note) on I/O
  /// failure — including short writes, so a truncated artifact is never
  /// reported as success. No-op returning true when `path` is empty.
  bool WriteFile(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string body = Render();
    size_t written = std::fwrite(body.data(), 1, body.size(), f);
    bool closed = std::fclose(f) == 0;
    if (written != body.size() || !closed) {
      std::fprintf(stderr, "short write to %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  HardwareInfo hardware_;
  std::vector<Record> records_;
};

/// The benchmark configuration used by all Table-1-family binaries:
/// 31 sets over 17 topics, ~150 entities per set (paper Sec 3.1).
inline AutoJoinOptions PaperAutoJoinOptions() {
  AutoJoinOptions opts;
  opts.num_sets = 31;
  opts.entities_per_set = 150;
  opts.seed = 42;
  return opts;
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_BENCH_BENCH_COMMON_H_
