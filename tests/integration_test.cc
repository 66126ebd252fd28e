// End-to-end integration tests: the full paper pipeline over the generated
// benchmarks, tying every module together.
#include <gtest/gtest.h>

#include "core/fuzzy_fd.h"
#include "core/value_matcher.h"
#include "datagen/autojoin.h"
#include "datagen/embench.h"
#include "datagen/imdb.h"
#include "em/entity_matcher.h"
#include "embedding/model_zoo.h"
#include "match/schema_matcher.h"
#include "metrics/pair_eval.h"
#include "table/csv.h"

namespace lakefuzz {
namespace {

/// Runs the paper's value-matching evaluation on one Auto-Join set.
Prf EvaluateSet(const AutoJoinSet& set, const ValueMatcherOptions& opts) {
  ValueMatcher matcher(opts);
  auto result = matcher.MatchColumns(set.columns);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::set<ItemPair> predicted;
  for (const auto& [a, b] : CrossColumnPairs(*result)) {
    predicted.insert(MakePair(ValueItemId(a.first, a.second),
                              ValueItemId(b.first, b.second)));
  }
  return EvaluatePairs(predicted, set.GroundTruthPairs());
}

TEST(IntegrationTest, AutoJoinMistralBeatsFastTextOnF1) {
  AutoJoinOptions gen;
  gen.num_sets = 8;
  gen.entities_per_set = 60;
  auto sets = GenerateAutoJoinBenchmark(gen);

  ValueMatcherOptions mistral;
  mistral.model = MakeModel(ModelKind::kMistral);
  ValueMatcherOptions fasttext;
  fasttext.model = MakeModel(ModelKind::kFastText);

  std::vector<Prf> pm, pf;
  for (const auto& set : sets) {
    pm.push_back(EvaluateSet(set, mistral));
    pf.push_back(EvaluateSet(set, fasttext));
  }
  MacroPrf m = MacroAverage(pm);
  MacroPrf f = MacroAverage(pf);
  EXPECT_GT(m.f1, f.f1) << "Mistral " << m.ToString() << " vs FastText "
                        << f.ToString();
  EXPECT_GT(m.f1, 0.6);  // the simulated Table-1 regime
}

TEST(IntegrationTest, EmDownstreamFuzzyBeatsRegular) {
  EmBenchOptions gen;
  gen.num_entities = 120;
  gen.seed = 7;
  auto bench = GenerateEmBenchmark(gen);
  SessionDict dict;
  const EncodedTables tables = EncodeTables(bench.tables, &dict);
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());

  FuzzyFdOptions opts;
  opts.matcher.model = MakeModel(ModelKind::kMistral);
  opts.session_dict = &dict;
  FuzzyFullDisjunction pipeline(opts);
  auto fuzzy = pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/true);
  ASSERT_TRUE(fuzzy.ok());
  auto regular = pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/false);
  ASSERT_TRUE(regular.ok());

  EntityMatcherOptions em_opts;
  em_opts.similarity_threshold = 0.82;
  EntityMatcher em(em_opts);
  auto eval = [&](const FdResult& fd) {
    Table integrated = FdResultsToTable(fd.tuples, aligned->universal_names,
                                        "integrated");
    auto clusters = em.Cluster(integrated);
    return EvaluateClustering(ExpandClustersToTids(fd.tuples, clusters),
                              bench.tid_entity);
  };
  Prf fuzzy_prf = eval(*fuzzy);
  Prf regular_prf = eval(*regular);
  EXPECT_GT(fuzzy_prf.f1(), regular_prf.f1())
      << "fuzzy " << fuzzy_prf.ToString() << " vs regular "
      << regular_prf.ToString();
}

TEST(IntegrationTest, ImdbEquiWorkloadFuzzyAddsResultsIdenticalToRegular) {
  ImdbOptions gen;
  gen.target_tuples = 1500;
  auto bench = GenerateImdb(gen);
  SessionDict dict;
  const EncodedTables tables = EncodeTables(bench.tables, &dict);
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());

  FuzzyFdOptions opts;
  opts.matcher.model = MakeModel(ModelKind::kMistral);
  opts.session_dict = &dict;
  FuzzyFullDisjunction pipeline(opts);
  FuzzyFdReport fuzzy_report;
  auto fuzzy =
      pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/true, &fuzzy_report);
  ASSERT_TRUE(fuzzy.ok()) << fuzzy.status().ToString();
  auto regular = pipeline.RunToTuples(tables, *aligned, /*fuzzy=*/false);
  ASSERT_TRUE(regular.ok());

  // Keys are consistent (equi workload): fuzzy matching must not change the
  // integration result.
  ASSERT_EQ(fuzzy->tuples.size(), regular->tuples.size());
  for (size_t i = 0; i < regular->tuples.size(); ++i) {
    EXPECT_EQ(fuzzy->tuples[i].values, regular->tuples[i].values);
  }
}

TEST(IntegrationTest, SchemaMatcherFeedsFuzzyFdWithoutHeaders) {
  // Scramble headers: alignment must come from content, then fuzzy FD must
  // still integrate (the full ALITE pipeline).
  auto t1 = Table::FromRows("T1", {"colA", "colB"},
                            {{Value::String("Berlinn"), Value::String("Germany")},
                             {Value::String("Toronto"), Value::String("Canada")},
                             {Value::String("Barcelona"), Value::String("Spain")}});
  auto t2 = Table::FromRows("T2", {"x1", "x2"},
                            {{Value::String("Berlin"), Value::String("DE")},
                             {Value::String("Toronto"), Value::String("CA")},
                             {Value::String("Madrid"), Value::String("ES")}});
  ASSERT_TRUE(t1.ok() && t2.ok());
  SessionDict dict;
  const EncodedTables tables = EncodeTables({*t1, *t2}, &dict);

  auto model = MakeModel(ModelKind::kMistral);
  HolisticSchemaMatcher matcher(std::make_shared<EmbeddingCache>(model));
  auto aligned = matcher.Align(tables, dict.dict());
  ASSERT_TRUE(aligned.ok());
  ASSERT_EQ(aligned->NumUniversal(), 2u);

  FuzzyFdOptions opts;
  opts.matcher.model = model;
  opts.session_dict = &dict;
  auto result = FuzzyFullDisjunction(opts).RunToTuples(tables, *aligned,
                                                       /*fuzzy=*/true);
  ASSERT_TRUE(result.ok());
  // Berlinn/Berlin and Toronto/Toronto integrate; Barcelona and Madrid
  // stay separate → 4 tuples.
  EXPECT_EQ(result->tuples.size(), 4u);
}

TEST(IntegrationTest, CsvRoundTripThroughPipeline) {
  // Tables serialized to CSV, re-parsed, then integrated — the realistic
  // data lake ingestion path.
  auto t1 = Table::FromRows("left", {"City", "Country"},
                            {{Value::String("Berlinn"), Value::String("Germany")},
                             {Value::String("Oslo"), Value::String("Norway")}});
  auto t2 = Table::FromRows("right", {"City", "VacRate"},
                            {{Value::String("Berlin"), Value::String("63%")},
                             {Value::String("Lima"), Value::String("71%")}});
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto r1 = ReadCsv(WriteCsv(*t1), "left");
  auto r2 = ReadCsv(WriteCsv(*t2), "right");
  ASSERT_TRUE(r1.ok() && r2.ok());
  SessionDict dict;
  const EncodedTables tables = EncodeTables({*r1, *r2}, &dict);
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());
  FuzzyFdOptions opts;
  opts.matcher.model = MakeModel(ModelKind::kMistral);
  opts.session_dict = &dict;
  auto result = FuzzyFullDisjunction(opts).RunToTuples(tables, *aligned,
                                                       /*fuzzy=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 3u);  // Berlin merged, Oslo, Lima
}

TEST(IntegrationTest, ThresholdSweepIsWellBehaved) {
  // F1 as a function of θ must rise from ~0 (nothing matches) and not crash
  // anywhere across the sweep — the ablation A1 harness in miniature.
  AutoJoinOptions gen;
  gen.num_sets = 3;
  gen.entities_per_set = 40;
  auto sets = GenerateAutoJoinBenchmark(gen);
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral);

  double f1_tiny = 0, f1_paper = 0;
  for (double theta : {0.01, 0.7}) {
    opts.threshold = theta;
    std::vector<Prf> parts;
    for (const auto& set : sets) parts.push_back(EvaluateSet(set, opts));
    double f1 = MacroAverage(parts).f1;
    if (theta < 0.1) {
      f1_tiny = f1;
    } else {
      f1_paper = f1;
    }
  }
  EXPECT_GT(f1_paper, f1_tiny);
}

}  // namespace
}  // namespace lakefuzz
