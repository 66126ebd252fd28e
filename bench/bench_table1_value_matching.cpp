// Table 1 reproduction: value-matching effectiveness of the five embedding
// models on the Auto-Join benchmark.
//
// Paper (Table 1):             P     R     F1
//   FastText                  0.70  0.67  0.66
//   BERT                      0.72  0.76  0.73
//   RoBERTa                   0.73  0.77  0.74
//   Llama3                    0.81  0.85  0.81
//   Mistral                   0.81  0.86  0.82
//
// We report macro-averaged P/R/F1 over the 31 generated integration sets
// (θ = 0.7, the paper's setting). Absolute values need not match — the
// models and the benchmark are simulated (DESIGN.md §1) — but the ordering
// and the LLM-vs-pretrained gap are the claims under reproduction.
//
// Performance flags:
//   --threads=N        matcher worker threads for the main pass (0 = all
//                      hardware threads, 1 = serial)
//   --scale_threads=a,b,c  additionally run the Mistral configuration once
//                      per listed thread count (throughput scaling curve)
//   --json_out=PATH    write p50/p95 wall times + matcher counters per
//                      configuration as a JSON array (BENCH_value_matching
//                      artifact)
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "embedding/model_zoo.h"
#include "metrics/report.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/str.h"

using namespace lakefuzz;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  AutoJoinOptions gen = PaperAutoJoinOptions();
  gen.entities_per_set =
      static_cast<size_t>(flags.GetInt("entities", 150));
  double theta = flags.GetDouble("theta", 0.7);
  size_t threads = ParseThreadsFlag(flags);
  std::string json_out = flags.GetString("json_out", "");
  std::string scale_threads = flags.GetString("scale_threads", "");

  std::printf(
      "=== Table 1: Value Matching effectiveness in Auto-Join Benchmark "
      "===\n%zu integration sets, %zu topics, ~%zu entities/set, θ=%.2f, "
      "threads=%zu\n\n",
      gen.num_sets, AutoJoinNumTopics(), gen.entities_per_set, theta,
      threads);

  auto sets = GenerateAutoJoinBenchmark(gen);
  BenchJsonWriter json;

  struct PaperRow {
    double p, r, f1;
  };
  const std::map<std::string, PaperRow> paper = {
      {"FastText", {0.70, 0.67, 0.66}}, {"BERT", {0.72, 0.76, 0.73}},
      {"RoBERTa", {0.73, 0.77, 0.74}},  {"Llama3", {0.81, 0.85, 0.81}},
      {"Mistral", {0.81, 0.86, 0.82}},
  };

  ReportTable table({"Model", "Precision", "Recall", "F1-Score",
                     "paper P/R/F1", "time (s)"});
  const std::unique_ptr<ThreadPool> pool = MakeThreadsPool(threads);
  for (ModelKind kind : AllModelKinds()) {
    ValueMatcherOptions opts;
    opts.model = MakeModel(kind);
    opts.threshold = theta;
    opts.pool = pool.get();
    Stopwatch watch;
    BenchRunStats run;
    std::vector<Prf> parts;
    parts.reserve(sets.size());
    for (const auto& set : sets) {
      parts.push_back(EvaluateAutoJoinSet(set, opts, &run));
    }
    MacroPrf macro = MacroAverage(parts);
    const std::string name(ModelKindToString(kind));
    const PaperRow& ref = paper.at(name);
    table.AddRow({name, FormatDouble(macro.precision, 2),
                  FormatDouble(macro.recall, 2), FormatDouble(macro.f1, 2),
                  StrFormat("%.2f/%.2f/%.2f", ref.p, ref.r, ref.f1),
                  FormatDouble(watch.ElapsedSeconds(), 2)});
    json.AddFromStats("table1_" + name, ResolveNumThreads(threads), run,
                      {{"precision", macro.precision},
                       {"recall", macro.recall},
                       {"f1", macro.f1}});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nExpected shape: Mistral ≥ Llama3 > RoBERTa ≥ BERT > FastText, "
      "LLM-grade models\nahead of the pre-trained LMs by a clear margin on "
      "every metric (paper Sec 3.2).\n");

  // Thread-scaling curve: same Mistral workload at each requested thread
  // count. Groups are asserted identical run-to-run elsewhere (ctest); here
  // the JSON records the throughput trajectory.
  if (!scale_threads.empty()) {
    std::printf("\n--- thread scaling (Mistral) ---\n");
    for (const std::string& part : Split(scale_threads, ',')) {
      size_t t = 0;
      if (!ParseThreadCount(part, &t)) {
        std::fprintf(stderr,
                     "--scale_threads: skipping invalid entry \"%s\" "
                     "(want an integer in [0, %zu])\n",
                     part.c_str(), kMaxBenchThreads);
        continue;
      }
      const std::unique_ptr<ThreadPool> scale_pool = MakeThreadsPool(t);
      ValueMatcherOptions opts;
      opts.model = MakeModel(ModelKind::kMistral);
      opts.threshold = theta;
      opts.pool = scale_pool.get();
      Stopwatch watch;
      BenchRunStats run;
      for (const auto& set : sets) {
        EvaluateAutoJoinSet(set, opts, &run);
      }
      double secs = watch.ElapsedSeconds();
      std::printf("threads=%zu (resolved %zu): %.3f s, p50 %.2f ms, "
                  "p95 %.2f ms/set\n",
                  t, ResolveNumThreads(t), secs,
                  Percentile(run.unit_ms, 0.50), Percentile(run.unit_ms, 0.95));
      json.AddFromStats(StrFormat("scaling_mistral_t%zu", t),
                        ResolveNumThreads(t), run);
    }
  }

  if (!json.WriteFile(json_out)) return 1;
  return 0;
}
