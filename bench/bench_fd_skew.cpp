// Skewed-lake FD benchmark: a single giant join-graph component.
//
// Real lakes are skewed: once fuzzy rewriting merges variants of a shared
// key (or a Gen-T-style reclamation workload links everything through one
// hub value), most tuples collapse into ONE component — and before PR 4 the
// component-parallel executor ran that component on one worker no matter
// how many threads the engine owned. This benchmark builds exactly that
// shape (every tuple shares a hub value; a corrupted key column partitions
// consistency), then sweeps the executor across pool sizes.
// Splitting the giant into root-branch ranges must keep output
// byte-identical at every setting; the enumeration time column is the one
// the ROADMAP tracks.
//
// Flags:
//   --tables=N --keys=N --rows_per_key=N   instance shape (default 4/500/2
//                                          → 4000-tuple single component)
//   --corrupt=P        typo probability on key cells (seeded; default 0.15)
//   --reps=N           repetitions, best time kept (default 3)
//   --threads=a,b,c    sweep list (default "1,2,4,8")
//   --smoke            tiny instance + 1 rep: CI bit-rot guard, not a
//                      measurement; fails when a multi-thread row ran no
//                      split ranges
//   --json_out=PATH    machine-readable artifact (bench-regression gate)
#include <cstdio>

#include "bench_common.h"
#include "core/fuzzy_fd.h"
#include "datagen/corruption.h"
#include "fd/aligned_schema.h"
#include "obs/stats_export.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/thread_pool.h"

using namespace lakefuzz;

namespace {

std::vector<Table> MakeSkewLake(size_t num_tables, size_t num_keys,
                                size_t rows_per_key, double corrupt_p,
                                uint64_t seed) {
  Rng rng(seed);
  CorruptionConfig config;
  config.typo = 1.0;
  std::vector<Table> tables;
  for (size_t l = 0; l < num_tables; ++l) {
    Table t("t" + std::to_string(l),
            Schema::FromNames({"key", "hub", "p" + std::to_string(l)}));
    for (size_t k = 0; k < num_keys; ++k) {
      for (size_t r = 0; r < rows_per_key; ++r) {
        std::string key = StrFormat("key_%05zu", k);
        // Shared-key corruption: some copies of the key carry a typo, the
        // noise Auto-Join catalogued between real joinable web tables.
        if (rng.Bernoulli(corrupt_p)) key = Corrupt(&rng, key, config);
        Status s = t.AppendRow(
            {Value::String(std::move(key)), Value::String("hub"),
             Value::String(StrFormat("v%zu_%zu_%zu", l, k, r))});
        if (!s.ok()) {
          std::fprintf(stderr, "%s\n", s.ToString().c_str());
          std::exit(1);
        }
      }
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  size_t num_tables = static_cast<size_t>(flags.GetInt("tables", 4));
  size_t num_keys =
      static_cast<size_t>(flags.GetInt("keys", smoke ? 12 : 500));
  size_t rows_per_key = static_cast<size_t>(flags.GetInt("rows_per_key", 2));
  double corrupt = flags.GetDouble("corrupt", 0.15);
  int reps = static_cast<int>(flags.GetInt("reps", smoke ? 1 : 3));
  std::string sweep = flags.GetString("threads", "1,2,4,8");
  std::string json_out = flags.GetString("json_out", "");
  BenchJsonWriter json;

  SessionDict dict;
  FuzzyFdOptions options;
  options.session_dict = &dict;

  auto owned_tables = MakeSkewLake(num_tables, num_keys, rows_per_key,
                                   corrupt, /*seed=*/20260730);
  const EncodedTables tables = EncodeTables(owned_tables, &dict);
  auto aligned = AlignByName(tables);
  if (!aligned.ok()) {
    std::fprintf(stderr, "%s\n", aligned.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "=== FD skew: one giant component, intra-component thread sweep ===\n"
      "%zu tables x %zu keys x %zu rows/key = %zu tuples, typo p=%.2f\n\n",
      num_tables, num_keys, rows_per_key,
      num_tables * num_keys * rows_per_key, corrupt);

  // Serial reference: no pool, so the component enumerates on one lane.
  FdResult reference;
  double serial_enum = 1e100;
  BenchRunStats serial_run;
  FuzzyFdReport serial_report;
  for (int rep = 0; rep < reps; ++rep) {
    FuzzyFdReport report;
    auto result = FuzzyFullDisjunction(options).RunToTuples(
        tables, *aligned, /*fuzzy=*/false, &report);
    if (!result.ok()) {
      std::fprintf(stderr, "serial FD failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    serial_run.unit_ms.push_back(report.fd_stats.enumeration_seconds * 1e3);
    if (report.fd_stats.enumeration_seconds < serial_enum) {
      serial_enum = report.fd_stats.enumeration_seconds;
      serial_report = report;
    }
    reference = std::move(result).value();
  }
  if (serial_report.fd_stats.num_components != 1) {
    std::fprintf(stderr,
                 "instance is not a single component (%zu); the benchmark "
                 "premise is broken\n",
                 serial_report.fd_stats.num_components);
    return 1;
  }
  json.AddFromStats(
      "fd_skew_giant_serial", 1, serial_run,
      {{"enum_s", serial_enum},
       {"output_tuples", static_cast<double>(reference.tuples.size())},
       {"search_nodes",
        static_cast<double>(serial_report.fd_stats.search_nodes)}});
  std::printf("serial: enum %.3f s, %zu tuples, %llu nodes\n", serial_enum,
              reference.tuples.size(),
              static_cast<unsigned long long>(
                  serial_report.fd_stats.search_nodes));

  for (const std::string& part : Split(sweep, ',')) {
    size_t t = 0;
    if (!ParseThreadCount(part, &t)) {
      std::fprintf(stderr, "--threads: skipping invalid entry \"%s\"\n",
                   part.c_str());
      continue;
    }
    double best_enum = 1e100;
    FdStats best_stats;
    BenchRunStats run;
    ThreadPool pool(ResolveNumThreads(t));
    FuzzyFdOptions pooled = options;
    pooled.pool = &pool;
    for (int rep = 0; rep < reps; ++rep) {
      FuzzyFdReport report;
      auto result = FuzzyFullDisjunction(pooled).RunToTuples(
          tables, *aligned, /*fuzzy=*/false, &report);
      if (!result.ok()) {
        std::fprintf(stderr, "parallel FD failed at t=%zu: %s\n", t,
                     result.status().ToString().c_str());
        return 1;
      }
      run.unit_ms.push_back(report.fd_stats.enumeration_seconds * 1e3);
      if (report.fd_stats.enumeration_seconds < best_enum) {
        best_enum = report.fd_stats.enumeration_seconds;
        best_stats = report.fd_stats;
      }
      // Byte-identity against the serial reference, every rep.
      if (result->tuples.size() != reference.tuples.size()) {
        std::fprintf(stderr, "output size mismatch at t=%zu\n", t);
        return 1;
      }
      for (size_t i = 0; i < reference.tuples.size(); ++i) {
        if (!(result->tuples[i] == reference.tuples[i])) {
          std::fprintf(stderr, "output mismatch at t=%zu tuple %zu\n", t, i);
          return 1;
        }
      }
    }
    // Execution evidence from the best rep comes from the shared
    // FdStats→extras mapping (obs/stats_export.h), so this artifact and the
    // engine's /metrics report the same numbers from the same fields.
    std::vector<std::pair<std::string, double>> extras = {
        {"enum_s", best_enum},
        {"speedup_vs_serial", serial_enum / best_enum},
        {"output_tuples", static_cast<double>(reference.tuples.size())}};
    for (auto& kv : FdExecutionExtras(best_stats)) {
      extras.push_back(std::move(kv));
    }
    json.AddFromStats(StrFormat("fd_skew_giant_t%zu", t),
                      ResolveNumThreads(t), run, std::move(extras));
    std::printf(
        "threads=%zu: enum %.3f s (%.2fx vs serial), %llu ranges, pool busy "
        "%.3f s / wait %.3f s, output identical\n",
        t, best_enum, serial_enum / best_enum,
        static_cast<unsigned long long>(best_stats.intra_tasks),
        best_stats.pool_busy_seconds, best_stats.pool_wait_seconds);
    // Nothing forces the split path, so the smoke run checks it ran: the
    // giant component must split on every multi-worker pool.
    if (smoke && ResolveNumThreads(t) > 1 && best_stats.intra_tasks == 0) {
      std::fprintf(stderr, "threads=%zu: the giant component was not split\n",
                   t);
      return 1;
    }
  }

  if (!json.WriteFile(json_out)) return 1;
  std::printf(
      "\nExpected shape: enumeration scales with threads on the giant "
      "component\n(root-branch ranges on the pool's lanes), with "
      "byte-identical output at every count.\nOn a single-core runner the "
      "sweep rows collapse to ~serial time.\n");
  return 0;
}
