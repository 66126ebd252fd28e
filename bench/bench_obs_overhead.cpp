// Telemetry overhead benchmark: the observability tax on a full request.
//
// PR 10 threads a tracer and a metrics registry through every pipeline
// stage. The contract is that observation is (a) free when no tracer is
// attached — the null-state ScopedSpan path must stay out of the profile —
// and (b) cheap when one is: spans live only at stage/component/task
// seams, never per tuple. This benchmark measures both sides on the same
// IMDB-shaped workload:
//
//   obs_untraced   Integrate with no tracer (the default production path).
//                  This row is the regression gate: CI compares its p50
//                  against the committed baseline at a 3% threshold.
//   obs_traced     Same requests with a fresh Tracer each; the traced_over
//                  head_pct extra reports the relative cost of full span
//                  capture + Chrome JSON export.
//
// Flags:
//   --tuples=N         IMDB generator target (default 6000; smoke 800)
//   --threads=N        engine pool size (default 2; 0 = hardware)
//   --reps=N           repetitions per row, all kept (default 5; smoke 2)
//   --smoke            tiny instance: CI bit-rot guard, not a measurement
//   --json_out=PATH    machine-readable artifact (bench-regression gate)
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "datagen/imdb.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

using namespace lakefuzz;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t tuples =
      static_cast<size_t>(flags.GetInt("tuples", smoke ? 800 : 6000));
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 2));
  const int reps = static_cast<int>(flags.GetInt("reps", smoke ? 2 : 5));
  const std::string json_out = flags.GetString("json_out", "");
  BenchJsonWriter json;

  ImdbOptions imdb;
  imdb.target_tuples = tuples;
  auto bench = GenerateImdb(imdb);

  MetricsRegistry metrics;
  auto engine = LakeEngine::Create(
      EngineOptions().SetNumThreads(threads).SetMetrics(&metrics));
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> names;
  for (auto& t : bench.tables) {
    std::string name = t.name();
    names.push_back(name);
    Status s = (*engine)->RegisterTable(std::move(name), std::move(t));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  std::printf(
      "=== observability overhead: traced vs untraced Integrate ===\n"
      "%zu input tuples across %zu tables, %zu threads, %d reps\n\n",
      bench.total_tuples, names.size(), threads, reps);

  // Warm the session caches once so neither row pays the cold-start cost.
  {
    auto warm = (*engine)->Integrate(names);
    if (!warm.ok()) {
      std::fprintf(stderr, "%s\n", warm.status().ToString().c_str());
      return 1;
    }
  }

  // Interleave traced and untraced reps so frequency scaling, allocator
  // warm-up, and cache drift hit both rows equally instead of biasing
  // whichever loop runs second.
  BenchRunStats untraced_run;
  BenchRunStats traced_run;
  size_t result_tuples = 0;
  size_t span_count = 0;
  size_t json_bytes = 0;
  for (int rep = 0; rep < reps; ++rep) {
    {
      Stopwatch watch;
      auto result = (*engine)->Integrate(names);
      const double elapsed_ms = watch.ElapsedSeconds() * 1e3;
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      untraced_run.unit_ms.push_back(elapsed_ms);
      result_tuples = result->integrated.NumRows();
    }
    {
      Tracer tracer;
      RequestOptions req;
      req.tracer = &tracer;
      Stopwatch watch;
      auto result = (*engine)->Integrate(names, req);
      // Export is part of the bill: a scraper renders the trace per
      // request.
      const std::string chrome = tracer.ToChromeJson();
      const double elapsed_ms = watch.ElapsedSeconds() * 1e3;
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      if (result->integrated.NumRows() != result_tuples) {
        std::fprintf(stderr, "traced output diverged: %zu vs %zu tuples\n",
                     result->integrated.NumRows(), result_tuples);
        return 1;
      }
      traced_run.unit_ms.push_back(elapsed_ms);
      span_count = tracer.span_count();
      json_bytes = chrome.size();
    }
  }
  const double untraced_p50 = Percentile(untraced_run.unit_ms, 0.5);
  std::printf("untraced: p50 %.2f ms, %zu output tuples\n", untraced_p50,
              result_tuples);
  const double traced_p50 = Percentile(traced_run.unit_ms, 0.5);
  const double overhead_pct =
      untraced_p50 > 0.0 ? (traced_p50 / untraced_p50 - 1.0) * 1e2 : 0.0;
  std::printf(
      "traced:   p50 %.2f ms (%+.1f%%), %zu spans, %zu bytes of Chrome "
      "JSON\n",
      traced_p50, overhead_pct, span_count, json_bytes);

  const MetricsSnapshot snap = (*engine)->MetricsSnapshot();
  json.AddFromStats(
      "obs_untraced", ResolveNumThreads(threads), untraced_run,
      {{"output_tuples", static_cast<double>(result_tuples)}});
  json.AddFromStats(
      "obs_traced", ResolveNumThreads(threads), traced_run,
      {{"traced_overhead_pct", overhead_pct},
       {"spans_per_request", static_cast<double>(span_count)},
       {"chrome_json_bytes", static_cast<double>(json_bytes)},
       {"metric_samples", static_cast<double>(snap.samples.size())}});
  if (!json.WriteFile(json_out)) return 1;

  std::printf(
      "\nExpected shape: the untraced row is the production hot path — CI "
      "gates it\nagainst the committed baseline at 3%%. The traced row "
      "stays within a few\npercent because spans exist only at stage and "
      "component seams.\n");
  return 0;
}
