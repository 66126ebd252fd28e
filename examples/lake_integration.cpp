// Full data-lake pipeline on generated open-data-style tables:
//
//   CSV files on disk → LakeEngine registry → holistic schema matching
//   (headers are deliberately unreliable) → fuzzy Full Disjunction streamed
//   through a RowSink → entity matching over the integrated tuples →
//   P/R/F1 against ground truth.
//
// This is the scenario the paper's introduction motivates: discovered
// tables about the same entities, scattered attributes, inconsistent
// values. The engine session runs both the regular-FD baseline and the
// fuzzy pipeline over the same registered tables; alignment, value matching
// and entity matching all read the session's one embedding memo.
//
//   ./lake_integration [--entities=150] [--seed=11] [--dir=/tmp/lakefuzz_demo]
#include <cstdio>
#include <filesystem>

#include "core/engine.h"
#include "datagen/embench.h"
#include "em/entity_matcher.h"
#include "metrics/pair_eval.h"
#include "table/csv.h"
#include "table/print.h"
#include "util/flags.h"

using namespace lakefuzz;

namespace {

/// Collects streamed result batches — the minimal RowSink. A real service
/// would serialize each batch to its response stream instead of keeping
/// them; the per-batch vector is reused by the engine, hence the copy.
class CollectingSink : public RowSink {
 public:
  Status Begin(const std::vector<std::string>& universal_names) override {
    universal_names_ = universal_names;
    return Status::OK();
  }
  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    ++batches_;
    tuples_.insert(tuples_.end(), batch.begin(), batch.end());
    return Status::OK();
  }
  const std::vector<std::string>& universal_names() const {
    return universal_names_;
  }
  const std::vector<FdResultTuple>& tuples() const { return tuples_; }
  size_t batches() const { return batches_; }

 private:
  std::vector<std::string> universal_names_;
  std::vector<FdResultTuple> tuples_;
  size_t batches_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  std::string dir = flags.GetString("dir", "/tmp/lakefuzz_demo");

  // 1. Simulate a discovered integration set and drop it as CSV files —
  //    the shape in which a data lake actually hands you tables.
  EmBenchOptions gen;
  gen.num_entities = static_cast<size_t>(flags.GetInt("entities", 150));
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  EmBenchmark bench = GenerateEmBenchmark(gen);

  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (const auto& t : bench.tables) {
    std::string path = dir + "/" + t.name() + ".csv";
    Status s = WriteCsvFile(t, path);
    if (!s.ok()) {
      std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    paths.push_back(path);
  }
  std::printf("Wrote %zu tables to %s\n", paths.size(), dir.c_str());

  // 2. One session for the whole workload: model + embedding cache +
  //    registry built once, reused by both integration requests below.
  auto engine = LakeEngine::Create(
      EngineOptions().SetModel(ModelKind::kMistral));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine setup failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> names;
  for (size_t i = 0; i < paths.size(); ++i) {
    std::string name = bench.tables[i].name();
    Status s = (*engine)->RegisterCsv(name, paths[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("  registered %-8s %4zu rows x %zu cols\n", name.c_str(),
                bench.tables[i].NumRows(), bench.tables[i].NumColumns());
    names.push_back(std::move(name));
  }

  // 3+4. Integrate both ways through the streaming sink (columns align
  //      holistically — by content, not headers). The first request aligns,
  //      embedding each column's sampled values into the session memo; the
  //      second reuses that alignment, and its value matching finds those
  //      strings already embedded.
  auto integrate = [&](bool fuzzy, CollectingSink* sink,
                       FuzzyFdReport* report) -> bool {
    RequestOptions req;
    req.fuzzy = fuzzy;
    req.batch_rows = 256;
    auto r = (*engine)->IntegrateToSink(names, sink, req);
    if (!r.ok()) {
      std::fprintf(stderr, "integration failed: %s\n",
                   r.status().ToString().c_str());
      return false;
    }
    *report = *r;
    return true;
  };
  CollectingSink regular_sink;
  CollectingSink fuzzy_sink;
  FuzzyFdReport regular_report;
  FuzzyFdReport fuzzy_report;
  if (!integrate(false, &regular_sink, &regular_report) ||
      !integrate(true, &fuzzy_sink, &fuzzy_report)) {
    return 1;
  }

  std::printf("\nAligned into %zu universal columns:",
              fuzzy_sink.universal_names().size());
  for (const auto& name : fuzzy_sink.universal_names()) {
    std::printf(" [%s]", name.c_str());
  }
  std::printf("\n");
  std::printf(
      "\nIntegration: regular FD → %zu rows in %.1f ms; fuzzy FD → %zu "
      "rows in %zu batches\n(%zu values rewritten, %.1f ms align + %.1f ms "
      "matching + %.1f ms FD = %.1f ms total;\nsession embedding memo, "
      "alignment + matching lookups: %zu hits / %zu misses)\n",
      regular_sink.tuples().size(), regular_report.total_seconds() * 1e3,
      fuzzy_sink.tuples().size(), fuzzy_sink.batches(),
      fuzzy_report.values_rewritten,
      fuzzy_report.stages.seconds(Stage::kAlign) * 1e3,
      fuzzy_report.stages.seconds(Stage::kMatch) * 1e3,
      fuzzy_report.stages.seconds(Stage::kFd) * 1e3,
      fuzzy_report.total_seconds() * 1e3,
      (*engine)->embedding_cache()->hits(),
      (*engine)->embedding_cache()->misses());

  // 5. Downstream entity matching, evaluated on input-tuple pairs.
  EntityMatcherOptions em_opts;
  em_opts.similarity_threshold = 0.8;
  // Embedding-based cell similarity through the session memo.
  em_opts.embeddings = (*engine)->embedding_cache();
  EntityMatcher em(em_opts);
  auto evaluate = [&](const CollectingSink& sink, const char* label) {
    Table integrated =
        FdResultsToTable(sink.tuples(), sink.universal_names(), label);
    auto clusters = em.Cluster(integrated);
    Prf prf = EvaluateClustering(ExpandClustersToTids(sink.tuples(), clusters),
                                 bench.tid_entity);
    std::printf("  EM over %-28s %s\n", label, prf.ToString().c_str());
  };
  std::printf("\nDownstream entity matching quality:\n");
  evaluate(regular_sink, "regular FD (ALITE baseline):");
  evaluate(fuzzy_sink, "fuzzy FD (this paper):");
  return 0;
}
