// IMDB-scale integration demo: the Fig. 3 workload at a chosen size.
//
// Generates the 6-table IMDB-style benchmark, integrates it with regular
// FD and with Fuzzy FD, and prints stage timings plus join-graph
// statistics — a single point of the Fig. 3 curve, inspectable by hand.
//
//   ./imdb_scale_demo [--tuples=5000] [--parallel] [--threads=4]
#include <cstdio>
#include <memory>

#include "assignment/parallel_cost.h"
#include "core/fuzzy_fd.h"
#include "datagen/imdb.h"
#include "embedding/model_zoo.h"
#include "fd/aligned_schema.h"
#include "metrics/report.h"
#include "util/flags.h"
#include "util/str.h"
#include "util/thread_pool.h"

using namespace lakefuzz;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  ImdbOptions gen;
  gen.target_tuples = static_cast<size_t>(flags.GetInt("tuples", 5000));
  bool parallel = flags.GetBool("parallel", false);
  size_t threads = static_cast<size_t>(flags.GetInt("threads", 0));

  ImdbBenchmark bench = GenerateImdb(gen);
  std::printf("Generated IMDB-style integration set (%s input tuples):\n",
              WithThousandsSep(static_cast<int64_t>(bench.total_tuples)).c_str());
  for (const auto& t : bench.tables) {
    std::printf("  %-17s %6zu rows x %zu cols\n", t.name().c_str(),
                t.NumRows(), t.NumColumns());
  }

  // --parallel runs every stage on one pool of --threads workers (0 =
  // hardware concurrency); without it everything runs inline.
  std::unique_ptr<ThreadPool> pool;
  if (parallel) pool = std::make_unique<ThreadPool>(ResolveNumThreads(threads));
  // Encode once (what LakeEngine registration does); alignment and the
  // pipeline read the code columns and decode through the same dictionary.
  SessionDict dict;
  const EncodedTables tables = EncodeTables(bench.tables, &dict, pool.get());
  auto aligned = AlignByName(tables);
  if (!aligned.ok()) {
    std::fprintf(stderr, "%s\n", aligned.status().ToString().c_str());
    return 1;
  }
  FuzzyFdOptions opts;
  opts.matcher.model = MakeModel(ModelKind::kMistral);
  opts.pool = pool.get();
  opts.session_dict = &dict;
  FuzzyFullDisjunction pipeline(opts);

  FuzzyFdReport regular_report;
  auto regular = pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/false,
                                      &regular_report);
  if (!regular.ok()) {
    std::fprintf(stderr, "regular FD failed: %s\n",
                 regular.status().ToString().c_str());
    return 1;
  }

  FuzzyFdReport fuzzy_report;
  auto fuzzy =
      pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/true, &fuzzy_report);
  if (!fuzzy.ok()) {
    std::fprintf(stderr, "fuzzy FD failed: %s\n",
                 fuzzy.status().ToString().c_str());
    return 1;
  }

  ReportTable report({"method", "match (s)", "FD (s)", "total (s)",
                      "output tuples", "components", "largest"});
  auto row = [&](const char* name, const FuzzyFdReport& r, size_t results) {
    report.AddRow({name, FormatDouble(r.stages.seconds(Stage::kMatch), 3),
                   FormatDouble(r.stages.seconds(Stage::kFd), 3),
                   FormatDouble(r.total_seconds(), 3),
                   std::to_string(results),
                   std::to_string(r.fd_stats.num_components),
                   std::to_string(r.fd_stats.largest_component)});
  };
  row("regular FD (ALITE)", regular_report, regular->tuples.size());
  row("fuzzy FD", fuzzy_report, fuzzy->tuples.size());
  std::printf("\n%s", report.Render().c_str());

  std::printf(
      "\nThe IMDB workload is an equi-join: the fuzzy matcher's exact-match "
      "pre-pass\nresolves every join value, so fuzzy FD adds only %.3f s of "
      "matching —\nthe paper's Fig. 3 'no overhead' claim.\n",
      fuzzy_report.stages.seconds(Stage::kMatch));
  return 0;
}
