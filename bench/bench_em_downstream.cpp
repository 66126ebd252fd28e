// Downstream-task reproduction (paper Sec 3.2, "Downstreaming Task
// Effectiveness"): entity matching over the table integrated by Fuzzy FD
// vs by regular FD, on the ALITE entity-matching benchmark.
//
// Paper:   Fuzzy FD  → P = 86%, R = 85%, F1 = 85%
//          regular FD → P = 79%, R = 83%, F1 = 81%
//
// Evaluation unit: pairs of *input tuples* co-clustered by EM (via FD
// provenance), against planted entity labels — identical integrations are
// thus comparable even when their row granularity differs.
#include <cstdio>

#include "core/fuzzy_fd.h"
#include "datagen/embench.h"
#include "em/entity_matcher.h"
#include "embedding/model_zoo.h"
#include "metrics/pair_eval.h"
#include "metrics/prf.h"
#include "metrics/report.h"
#include "util/flags.h"
#include "util/str.h"

using namespace lakefuzz;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  size_t num_entities = static_cast<size_t>(flags.GetInt("entities", 400));
  size_t trials = static_cast<size_t>(flags.GetInt("trials", 5));

  std::printf(
      "=== Sec 3.2 (in-text table): Entity matching over integrated tables "
      "===\nALITE EM benchmark (simulated): %zu entities scattered over "
      "%d tables,\naveraged over %zu seeds.\n\n",
      num_entities, 3, trials);

  auto model = MakeModel(ModelKind::kMistral);
  EntityMatcherOptions em_opts;
  em_opts.similarity_threshold = flags.GetDouble("em-threshold", 0.80);
  // Embedding-based cell similarity, one memo for every trial.
  em_opts.embeddings = std::make_shared<EmbeddingCache>(model);
  EntityMatcher em(em_opts);

  std::vector<Prf> fuzzy_parts, regular_parts;
  for (size_t trial = 0; trial < trials; ++trial) {
    EmBenchOptions gen;
    gen.num_entities = num_entities;
    gen.seed = 1000 + trial;
    EmBenchmark bench = GenerateEmBenchmark(gen);
    SessionDict dict;
    const EncodedTables tables = EncodeTables(bench.tables, &dict);
    auto aligned = AlignByName(tables);
    if (!aligned.ok()) {
      std::fprintf(stderr, "%s\n", aligned.status().ToString().c_str());
      return 1;
    }

    FuzzyFdOptions opts;
    opts.matcher.model = model;
    opts.session_dict = &dict;
    FuzzyFullDisjunction pipeline(opts);
    auto fuzzy = pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/true);
    auto regular = pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/false);
    if (!fuzzy.ok() || !regular.ok()) {
      std::fprintf(stderr, "integration failed on trial %zu\n", trial);
      return 1;
    }
    auto evaluate = [&](const FdResult& fd) {
      Table integrated =
          FdResultsToTable(fd.tuples, aligned->universal_names, "integrated");
      auto clusters = em.Cluster(integrated);
      return EvaluateClustering(ExpandClustersToTids(fd.tuples, clusters),
                                bench.tid_entity);
    };
    fuzzy_parts.push_back(evaluate(*fuzzy));
    regular_parts.push_back(evaluate(*regular));
  }

  MacroPrf fuzzy_macro = MacroAverage(fuzzy_parts);
  MacroPrf regular_macro = MacroAverage(regular_parts);
  ReportTable table(
      {"Integration", "Precision", "Recall", "F1", "paper P/R/F1"});
  table.AddRow({"regular FD (ALITE)", FormatDouble(regular_macro.precision, 2),
                FormatDouble(regular_macro.recall, 2),
                FormatDouble(regular_macro.f1, 2), "0.79/0.83/0.81"});
  table.AddRow({"Fuzzy FD", FormatDouble(fuzzy_macro.precision, 2),
                FormatDouble(fuzzy_macro.recall, 2),
                FormatDouble(fuzzy_macro.f1, 2), "0.86/0.85/0.85"});
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nExpected shape: Fuzzy FD ahead on all three metrics — it merges "
      "the corrupted\njoin values regular FD fragments, giving EM fuller "
      "rows (recall) and enough\nconflicting evidence to reject homonym "
      "false positives (precision).\n");
  return 0;
}
