// Engine-reuse benchmark: the session API's reason to exist, measured.
//
// One lake (the 6-table IMDB benchmark), N sequential Integrate calls.
// A LakeEngine pays model construction once and carries its embedding
// cache across calls, so call 1 ("cold") embeds every distinct value and
// calls 2..N ("warm") re-embed nothing; a one-shot caller that builds a
// throwaway engine per call stays cold forever.
//
//   --tuples=8000   IMDB scale (input tuples across the 6 tables)
//   --calls=5       Integrate calls per engine session
//   --reps=3        sessions (cold-call samples) per configuration
//   --threads=1     engine worker threads (0 = hardware concurrency)
//   --json_out=PATH machine-readable artifact (BENCH_engine_reuse.json)
//
// JSON records: engine_reuse_cold (first call per session),
// engine_reuse_warm (calls 2..N), oneshot_facade (a throwaway engine per
// call: create, register, Integrate). The warm record's match_ms_avg <
// cold's is the acceptance signal for cross-call cache reuse.
//
// The three buckets hold different sample counts (cold: one per session,
// warm: calls-1 per session), so total_s is NOT comparable across records —
// warm's total once read as "slower than cold" purely because it summed 4x
// the calls. Every record therefore carries samples/mean_ms (writer fields)
// plus explicit reps/calls extras; compare mean_ms or p50_ms, never raw
// total_s.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "datagen/imdb.h"
#include "util/flags.h"

using namespace lakefuzz;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  size_t tuples = static_cast<size_t>(flags.GetInt("tuples", 8000));
  int calls = static_cast<int>(flags.GetInt("calls", 5));
  int reps = static_cast<int>(flags.GetInt("reps", 3));
  size_t threads = ParseThreadsFlag(flags);
  std::string json_out = flags.GetString("json_out", "");
  if (calls < 2) calls = 2;  // warm requires at least one reuse call

  ImdbOptions gen;
  gen.target_tuples = tuples;
  ImdbBenchmark bench = GenerateImdb(gen);
  std::vector<std::string> names;
  for (const auto& t : bench.tables) names.push_back(t.name());

  std::printf(
      "=== Engine reuse: %d Integrate calls per session over the IMDB lake "
      "(%zu input tuples, %zu threads, %d sessions) ===\n\n",
      calls, bench.total_tuples, threads, reps);

  BenchRunStats cold_stats;
  BenchRunStats warm_stats;
  double cold_match_ms = 0.0;
  double warm_match_ms = 0.0;
  size_t result_rows = 0;

  RequestOptions req;
  req.holistic_alignment = false;  // IMDB headers are trustworthy

  for (int rep = 0; rep < reps; ++rep) {
    auto engine = LakeEngine::Create(EngineOptions()
                                         .SetModel(ModelKind::kMistral)
                                         .SetNumThreads(threads));
    if (!engine.ok()) {
      std::fprintf(stderr, "engine setup failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    for (const auto& t : bench.tables) {
      Status s = (*engine)->RegisterTable(t.name(), t);
      if (!s.ok()) {
        std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    for (int call = 0; call < calls; ++call) {
      Stopwatch watch;
      auto result = (*engine)->Integrate(names, req);
      double elapsed_ms = watch.ElapsedMillis();
      if (!result.ok()) {
        std::fprintf(stderr, "call failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      result_rows = result->integrated.NumRows();
      const auto& stats = result->report.match_stats;
      BenchRunStats* bucket = call == 0 ? &cold_stats : &warm_stats;
      bucket->unit_ms.push_back(elapsed_ms);
      bucket->cost_evaluations += stats.cost_evaluations;
      bucket->embedding_cache_hits += stats.embedding_cache_hits;
      bucket->embedding_cache_misses += stats.embedding_cache_misses;
      (call == 0 ? cold_match_ms : warm_match_ms) +=
          result->report.stages.seconds(Stage::kMatch) * 1e3;
    }
  }
  const double cold_match_avg = cold_match_ms / reps;
  const double warm_match_avg =
      warm_match_ms / (static_cast<double>(reps) * (calls - 1));

  // Baseline: one-shot calls, each rebuilding the session (model + empty
  // cache) on a throwaway engine that borrows the tables.
  BenchRunStats oneshot_stats;
  double oneshot_match_ms = 0.0;
  auto one_shot = [&]() -> Result<PipelineResult> {
    LAKEFUZZ_ASSIGN_OR_RETURN(
        std::unique_ptr<LakeEngine> engine,
        LakeEngine::Create(EngineOptions().SetModel(ModelKind::kMistral)));
    for (const auto& t : bench.tables) {
      LAKEFUZZ_RETURN_IF_ERROR(engine->RegisterTable(
          t.name(), std::shared_ptr<const Table>(&t, [](const Table*) {})));
    }
    return engine->Integrate(names, req);
  };
  for (int call = 0; call < calls; ++call) {
    Stopwatch watch;
    auto result = one_shot();
    double elapsed_ms = watch.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "one-shot call failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    oneshot_stats.unit_ms.push_back(elapsed_ms);
    oneshot_stats.embedding_cache_hits +=
        result->report.match_stats.embedding_cache_hits;
    oneshot_stats.embedding_cache_misses +=
        result->report.match_stats.embedding_cache_misses;
    oneshot_match_ms += result->report.stages.seconds(Stage::kMatch) * 1e3;
  }
  const double oneshot_match_avg = oneshot_match_ms / calls;

  std::printf("engine cold call:   p50 %8.2f ms  (match avg %6.2f ms)\n",
              Percentile(cold_stats.unit_ms, 0.5), cold_match_avg);
  std::printf("engine warm calls:  p50 %8.2f ms  (match avg %6.2f ms, "
              "%zu cache hits / %zu misses)\n",
              Percentile(warm_stats.unit_ms, 0.5), warm_match_avg,
              warm_stats.embedding_cache_hits,
              warm_stats.embedding_cache_misses);
  std::printf("one-shot facade:    p50 %8.2f ms  (match avg %6.2f ms)\n",
              Percentile(oneshot_stats.unit_ms, 0.5), oneshot_match_avg);
  std::printf("output: %zu integrated rows per call\n", result_rows);
  if (warm_match_avg < cold_match_avg) {
    std::printf("OK: warm match time below cold (cache reuse pays off)\n");
  } else {
    std::printf("NOTE: warm match time not below cold on this run\n");
  }

  BenchJsonWriter json;
  json.AddFromStats("engine_reuse_cold", threads, cold_stats,
                    {{"match_ms_avg", cold_match_avg},
                     {"reps", static_cast<double>(reps)},
                     {"calls_per_rep", 1.0},
                     {"rows", static_cast<double>(result_rows)}});
  json.AddFromStats("engine_reuse_warm", threads, warm_stats,
                    {{"match_ms_avg", warm_match_avg},
                     {"reps", static_cast<double>(reps)},
                     {"calls_per_rep", static_cast<double>(calls - 1)},
                     {"rows", static_cast<double>(result_rows)}});
  json.AddFromStats("oneshot_facade", threads, oneshot_stats,
                    {{"match_ms_avg", oneshot_match_avg},
                     {"reps", 1.0},
                     {"calls_per_rep", static_cast<double>(calls)},
                     {"rows", static_cast<double>(result_rows)}});
  if (!json.WriteFile(json_out)) return 1;
  return 0;
}
