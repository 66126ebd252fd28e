// Tests for src/core: blocking, the ValueMatcher (paper Sec 2.2, Fig. 2),
// and the Fuzzy Full Disjunction pipeline (paper Fig. 1).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/blocking.h"
#include "core/fuzzy_fd.h"
#include "core/value_matcher.h"
#include "embedding/knowledge_base.h"
#include "embedding/model_zoo.h"
#include "fd_problems.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

ValueMatcherOptions MistralOptions() {
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral, 256);
  return opts;
}

/// Looks up the group containing (col, value); returns nullptr if absent.
const ValueGroup* GroupOf(const ValueMatchResult& result, size_t col,
                          const std::string& value) {
  for (const auto& g : result.groups) {
    for (const auto& m : g.members) {
      if (m.first == col && m.second == value) return &g;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- Blocking

TEST(BlockingTest, SurfacePairsShareNgrams) {
  BlockingOptions opts;
  auto pairs = GenerateCandidates({"Berlin", "Toronto"},
                                  {"Berlinn", "Madrid"}, opts);
  // (Berlin, Berlinn) must be a candidate; (Toronto, Madrid) must not.
  EXPECT_NE(std::find(pairs.begin(), pairs.end(),
                      std::make_pair(size_t{0}, size_t{0})),
            pairs.end());
  EXPECT_EQ(std::find(pairs.begin(), pairs.end(),
                      std::make_pair(size_t{1}, size_t{1})),
            pairs.end());
}

TEST(BlockingTest, KnowledgeBaseBridgesAliases) {
  BlockingOptions no_kb;
  auto without = GenerateCandidates({"Canada"}, {"CA"}, no_kb);
  EXPECT_TRUE(without.empty());  // no shared 3-gram

  BlockingOptions with_kb;
  with_kb.knowledge_base =
      std::make_shared<KnowledgeBase>(KnowledgeBase::BuiltIn());
  auto with = GenerateCandidates({"Canada"}, {"CA"}, with_kb);
  ASSERT_EQ(with.size(), 1u);
  EXPECT_EQ(with[0], std::make_pair(size_t{0}, size_t{0}));
}

TEST(BlockingTest, InitialsKeyBridgesAcronyms) {
  BlockingOptions opts;
  auto pairs = GenerateCandidates({"United States"}, {"US"}, opts);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(BlockingTest, DeduplicatedAndSorted) {
  BlockingOptions opts;
  auto pairs =
      GenerateCandidates({"Berlin", "Berlin City"}, {"Berlinn"}, opts);
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i - 1], pairs[i]);
  }
}

// ---------------------------------------------------------------- ValueMatcher

TEST(ValueMatcherTest, RequiresDistanceSource) {
  ValueMatcherOptions opts;  // neither model nor string_distance
  ValueMatcher matcher(opts);
  EXPECT_FALSE(matcher.MatchColumns({{"a"}}).ok());
}

TEST(ValueMatcherTest, RejectsDuplicateValuesInColumn) {
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({{"x", "x"}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValueMatcherTest, EmptyInputYieldsNoGroups) {
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->groups.empty());
}

TEST(ValueMatcherTest, SingleColumnAllSingletons) {
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({{"Berlin", "Toronto"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 2u);
  for (const auto& g : r->groups) {
    EXPECT_EQ(g.members.size(), 1u);
    EXPECT_EQ(g.representative, g.members[0].second);
  }
}

TEST(ValueMatcherTest, PaperFig2CityWalkthrough) {
  // Columns from Fig. 2: T1.City, T2.City, T3.City.
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({
      {"Berlinn", "Toronto", "Barcelona", "New Delhi"},
      {"Toronto", "Boston", "Berlin", "Barcelona"},
      {"Berlin", "barcelona", "Boston"},
  });
  ASSERT_TRUE(r.ok());
  // Final combined column: Berlin, Toronto, Barcelona, New Delhi, Boston.
  EXPECT_EQ(r->groups.size(), 5u);

  const ValueGroup* berlin = GroupOf(*r, 0, "Berlinn");
  ASSERT_NE(berlin, nullptr);
  EXPECT_EQ(berlin->members.size(), 3u);
  // Berlin appears twice (T2, T3), Berlinn once → representative Berlin.
  EXPECT_EQ(berlin->representative, "Berlin");

  const ValueGroup* barcelona = GroupOf(*r, 0, "Barcelona");
  ASSERT_NE(barcelona, nullptr);
  EXPECT_EQ(barcelona->members.size(), 3u);  // incl. lowercase barcelona
  EXPECT_EQ(barcelona->representative, "Barcelona");

  const ValueGroup* delhi = GroupOf(*r, 0, "New Delhi");
  ASSERT_NE(delhi, nullptr);
  EXPECT_EQ(delhi->members.size(), 1u);

  const ValueGroup* boston = GroupOf(*r, 1, "Boston");
  ASSERT_NE(boston, nullptr);
  EXPECT_EQ(boston->members.size(), 2u);  // T2 + T3
}

TEST(ValueMatcherTest, PaperExample3CountryColumns) {
  // Country columns of T1/T2: codes match full names through the KB; the
  // bipartite matcher must not pair India with US (distance above θ).
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({
      {"Germany", "Canada", "Spain", "India"},
      {"CA", "US", "DE", "ES"},
  });
  ASSERT_TRUE(r.ok());
  const ValueGroup* germany = GroupOf(*r, 0, "Germany");
  ASSERT_NE(germany, nullptr);
  ASSERT_EQ(germany->members.size(), 2u);
  EXPECT_EQ(germany->members[1].second, "DE");

  const ValueGroup* canada = GroupOf(*r, 0, "Canada");
  ASSERT_NE(canada, nullptr);
  EXPECT_EQ(canada->members.size(), 2u);

  // India and US stay singletons.
  EXPECT_EQ(GroupOf(*r, 0, "India")->members.size(), 1u);
  EXPECT_EQ(GroupOf(*r, 1, "US")->members.size(), 1u);
}

TEST(ValueMatcherTest, TieBreakPrefersEarlierColumn) {
  // "Madrid" vs "Madrid" exact: both frequency 1... use distinct surfaces:
  // Berlim (col 0) vs Berlin (col 1), each frequency 1 → tie → col 0 wins.
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({{"Berlim"}, {"Berlin"}});
  ASSERT_TRUE(r.ok());
  const ValueGroup* g = GroupOf(*r, 0, "Berlim");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->members.size(), 2u);
  EXPECT_EQ(g->representative, "Berlim");
}

TEST(ValueMatcherTest, FrequencyBeatsColumnOrder) {
  // "Torontoo" (col 0) vs "Toronto" in cols 1 and 2 → rep = Toronto.
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({{"Torontoo"}, {"Toronto"}, {"Toronto"}});
  ASSERT_TRUE(r.ok());
  const ValueGroup* g = GroupOf(*r, 0, "Torontoo");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->members.size(), 3u);
  EXPECT_EQ(g->representative, "Toronto");
}

TEST(ValueMatcherTest, ThresholdGovernsMatching) {
  ValueMatcherOptions strict = MistralOptions();
  strict.threshold = 0.05;  // nearly nothing passes
  auto r1 = ValueMatcher(strict).MatchColumns({{"Berlinn"}, {"Berlin"}});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->groups.size(), 2u);  // typo pair not matched

  ValueMatcherOptions loose = MistralOptions();
  loose.threshold = 0.7;
  auto r2 = ValueMatcher(loose).MatchColumns({{"Berlinn"}, {"Berlin"}});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->groups.size(), 1u);
}

TEST(ValueMatcherTest, ExactPrepassShortCircuitsAssignment) {
  ValueMatcherOptions opts = MistralOptions();
  auto r = ValueMatcher(opts).MatchColumns(
      {{"Berlin", "Toronto"}, {"Toronto", "Berlin"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 2u);
  EXPECT_EQ(r->stats.exact_matches, 2u);
  EXPECT_EQ(r->stats.assignment_matches, 0u);
  EXPECT_EQ(r->stats.cost_evaluations, 0u);
}

TEST(ValueMatcherTest, PrepassDisabledUsesAssignment) {
  ValueMatcherOptions opts = MistralOptions();
  opts.exact_match_prepass = false;
  auto r = ValueMatcher(opts).MatchColumns(
      {{"Berlin", "Toronto"}, {"Toronto", "Berlin"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 2u);
  EXPECT_EQ(r->stats.exact_matches, 0u);
  EXPECT_EQ(r->stats.assignment_matches, 2u);
}

TEST(ValueMatcherTest, SparseModeAgreesWithDense) {
  ValueMatcherOptions dense = MistralOptions();
  ValueMatcherOptions sparse = MistralOptions();
  sparse.max_dense_cells = 0;  // force blocking path
  sparse.blocking.knowledge_base =
      std::make_shared<KnowledgeBase>(KnowledgeBase::BuiltIn());
  std::vector<std::vector<std::string>> columns = {
      {"Berlinn", "Toronto", "Barcelona", "New Delhi"},
      {"Toronto", "Boston", "Berlin", "Barcelona"},
  };
  auto rd = ValueMatcher(dense).MatchColumns(columns);
  auto rs = ValueMatcher(sparse).MatchColumns(columns);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rd->groups.size(), rs->groups.size());
  EXPECT_EQ(rs->stats.sparse_solves, 1u);
  EXPECT_EQ(rs->stats.dense_solves, 0u);
}

TEST(ValueMatcherTest, StringDistanceModeWorks) {
  ValueMatcherOptions opts;
  opts.string_distance = MakeStringDistance(StringDistanceKind::kJaroWinkler);
  opts.threshold = 0.25;
  // Jaro-Winkler rates cross pairs (Madrid/Berlin ≈ 0.44) well enough that
  // the unmasked optimum prefers two doomed pairs over one great + one
  // terrible; mask so the sub-θ structure drives the assignment here.
  opts.mask_before_solve = true;
  auto r = ValueMatcher(opts).MatchColumns({{"Berlinn", "Madrid"},
                                            {"Berlin", "Lisbon"}});
  ASSERT_TRUE(r.ok());
  const ValueGroup* g = GroupOf(*r, 0, "Berlinn");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->members.size(), 2u);
  EXPECT_EQ(GroupOf(*r, 1, "Lisbon")->members.size(), 1u);
}

TEST(ValueMatcherTest, CrossColumnPairsEnumeration) {
  ValueMatcher matcher(MistralOptions());
  auto r = matcher.MatchColumns({{"Berlinn"}, {"Berlin"}, {"Berlin "}});
  ASSERT_TRUE(r.ok());
  auto pairs = CrossColumnPairs(*r);
  // One group of 3 members → 3 cross-column pairs.
  EXPECT_EQ(pairs.size(), 3u);
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(a.first, b.first);
  }
}

// ---------------------------------------------------------------- FuzzyFD

std::vector<Table> Fig1Tables() {
  auto t1 = Table::FromRows(
      "T1", {"City", "Country"},
      {{S("Berlinn"), S("Germany")},
       {S("Toronto"), S("Canada")},
       {S("Barcelona"), S("Spain")},
       {S("New Delhi"), S("India")}});
  auto t2 = Table::FromRows(
      "T2", {"Country", "City", "VacRate"},
      {{S("CA"), S("Toronto"), S("83%")},
       {S("US"), S("Boston"), S("62%")},
       {S("DE"), S("Berlin"), S("63%")},
       {S("ES"), S("Barcelona"), S("82%")}});
  auto t3 = Table::FromRows(
      "T3", {"City", "TotalCases", "DeathRate"},
      {{S("Berlin"), S("1.4M"), S("147")},
       {S("barcelona"), S("2.68M"), S("275")},
       {S("Boston"), S("263K"), S("335")}});
  EXPECT_TRUE(t1.ok() && t2.ok() && t3.ok());
  return {std::move(t1).value(), std::move(t2).value(), std::move(t3).value()};
}

FuzzyFdOptions PaperFuzzyFdOptions() {
  FuzzyFdOptions opts;
  opts.matcher = MistralOptions();
  opts.session_dict = TestSessionDict();
  return opts;
}

TEST(FuzzyFdTest, Fig1FuzzyIntegrationProducesFiveTuples) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFullDisjunction fuzzy(PaperFuzzyFdOptions());
  FuzzyFdReport report;
  auto result = fuzzy.RunToTuples(TestEncoded(tables), *aligned,
                                  /*fuzzy=*/true, &report);
  ASSERT_TRUE(result.ok());
  // Paper Fig. 1 Fuzzy FD(T1,T2,T3): f10..f14 — five tuples.
  ASSERT_EQ(result->tuples.size(), 5u);

  std::set<std::vector<uint32_t>> tid_sets;
  for (const auto& t : result->tuples) tid_sets.insert(t.tids);
  EXPECT_TRUE(tid_sets.count({0, 6, 8}));   // Berlinn+Berlin+Berlin
  EXPECT_TRUE(tid_sets.count({1, 4}));      // Toronto
  EXPECT_TRUE(tid_sets.count({2, 7, 9}));   // Barcelona ×3
  EXPECT_TRUE(tid_sets.count({3}));         // New Delhi alone
  EXPECT_TRUE(tid_sets.count({5, 10}));     // Boston
  EXPECT_GT(report.values_rewritten, 0u);
  EXPECT_EQ(report.aligned_sets_matched, 2u);  // City and Country
}

TEST(FuzzyFdTest, Fig1RepresentativeValuesFollowPaperRule) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFullDisjunction fuzzy(PaperFuzzyFdOptions());
  auto result =
      fuzzy.RunToTuples(TestEncoded(tables), *aligned, /*fuzzy=*/true);
  ASSERT_TRUE(result.ok());
  for (const auto& t : result->tuples) {
    if (t.tids == std::vector<uint32_t>{0, 6, 8}) {
      EXPECT_EQ(t.values[0], S("Berlin"));    // freq 2 beats Berlinn
      // Germany vs DE: tie (1 each) → earlier table (T1) wins.
      EXPECT_EQ(t.values[1], S("Germany"));
      EXPECT_EQ(t.values[2], S("63%"));
      EXPECT_EQ(t.values[3], S("1.4M"));
      EXPECT_EQ(t.values[4], S("147"));
    }
    if (t.tids == std::vector<uint32_t>{1, 4}) {
      EXPECT_EQ(t.values[1], S("Canada"));  // tie → T1's value
      EXPECT_EQ(t.values[2], S("83%"));
    }
  }
}

TEST(FuzzyFdTest, RewriteTablesMakesValuesConsistent) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFullDisjunction fuzzy(PaperFuzzyFdOptions());
  FuzzyFdReport report;
  auto rewritten = fuzzy.RewriteTables(TestEncoded(tables), *aligned,
                                       &report);
  ASSERT_TRUE(rewritten.ok());
  // T1's Berlinn must now read Berlin; T3's barcelona must read Barcelona.
  EXPECT_EQ((*rewritten)[0].At(0, 0), S("Berlin"));
  EXPECT_EQ((*rewritten)[2].At(1, 0), S("Barcelona"));
  // T2's Country codes rewritten to the full names (earlier-table reps).
  EXPECT_EQ((*rewritten)[1].At(0, 0), S("Canada"));
  EXPECT_EQ((*rewritten)[1].At(2, 0), S("Germany"));
  // Untouched cells stay identical.
  EXPECT_EQ((*rewritten)[1].At(0, 2), S("83%"));
}

TEST(FuzzyFdTest, DegeneratesToRegularFdWithImpossibleThreshold) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFdOptions opts = PaperFuzzyFdOptions();
  // θ = 0 with the strict `dist < θ` rule admits nothing — even distance-0
  // pairs like case variants — so only byte-equal values unify (a no-op).
  opts.matcher.threshold = 0.0;
  opts.matcher.normalize_identity = false;  // prepass = byte equality only
  FuzzyFullDisjunction fuzzy(opts);
  auto fuzzy_result =
      fuzzy.RunToTuples(TestEncoded(tables), *aligned, /*fuzzy=*/true);
  ASSERT_TRUE(fuzzy_result.ok());
  auto regular =
      fuzzy.RunToTuples(TestEncoded(tables), *aligned, /*fuzzy=*/false);
  ASSERT_TRUE(regular.ok());
  ASSERT_EQ(fuzzy_result->tuples.size(), regular->tuples.size());
  for (size_t i = 0; i < regular->tuples.size(); ++i) {
    EXPECT_EQ(fuzzy_result->tuples[i].values, regular->tuples[i].values);
  }
}

TEST(FuzzyFdTest, PooledPipelineMatchesInline) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  ThreadPool pool(3);
  FuzzyFdOptions seq_opts = PaperFuzzyFdOptions();
  FuzzyFdOptions par_opts = PaperFuzzyFdOptions();
  par_opts.pool = &pool;
  auto seq = FuzzyFullDisjunction(seq_opts).RunToTuples(
      TestEncoded(tables), *aligned, /*fuzzy=*/true);
  auto par = FuzzyFullDisjunction(par_opts).RunToTuples(
      TestEncoded(tables), *aligned, /*fuzzy=*/true);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  ASSERT_EQ(seq->tuples.size(), par->tuples.size());
  for (size_t i = 0; i < seq->tuples.size(); ++i) {
    EXPECT_EQ(seq->tuples[i].values, par->tuples[i].values);
  }
}

TEST(FuzzyFdTest, BatchesCoverTheResultInOrder) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFullDisjunction fuzzy(PaperFuzzyFdOptions());
  auto whole =
      fuzzy.RunToTuples(TestEncoded(tables), *aligned, /*fuzzy=*/true);
  ASSERT_TRUE(whole.ok());
  std::vector<FdResultTuple> streamed;
  std::vector<size_t> batch_sizes;
  auto emitted = fuzzy.RunToBatches(
      TestEncoded(tables), *aligned, /*fuzzy=*/true, /*batch_rows=*/2,
      [&](std::vector<FdResultTuple>* batch) {
        batch_sizes.push_back(batch->size());
        streamed.insert(streamed.end(), batch->begin(), batch->end());
        return Status::OK();
      });
  ASSERT_TRUE(emitted.ok());
  EXPECT_EQ(*emitted, 5u);
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{2, 2, 1}));
  EXPECT_EQ(streamed, whole->tuples);
}

TEST(FuzzyFdTest, ReportTimingsPopulated) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFdReport report;
  auto result = FuzzyFullDisjunction(PaperFuzzyFdOptions())
                    .RunToTuples(TestEncoded(tables), *aligned,
                                 /*fuzzy=*/true, &report);
  ASSERT_TRUE(result.ok());
  // A bare pipeline run (no engine) records its own stages into the
  // report's ledger; alignment happened out of band.
  for (Stage stage : {Stage::kMatch, Stage::kRewrite, Stage::kFd,
                      Stage::kFdBuild, Stage::kFdIndex, Stage::kFdEnumerate,
                      Stage::kFdSubsume, Stage::kEmit}) {
    EXPECT_EQ(report.stages.runs(stage), 1u) << StageName(stage);
  }
  EXPECT_EQ(report.stages.runs(Stage::kAlign), 0u);
  EXPECT_GT(report.total_seconds(), 0.0);
  EXPECT_EQ(report.fd_stats.results, 5u);
}

TEST(FuzzyFdTest, PipelineRequiresSessionDict) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFdOptions opts = PaperFuzzyFdOptions();
  opts.session_dict = nullptr;
  FuzzyFullDisjunction fuzzy(opts);
  for (bool fuzzy_mode : {true, false}) {
    EXPECT_EQ(
        fuzzy.RunToTuples(TestEncoded(tables), *aligned, fuzzy_mode).code(),
        ErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(fuzzy.RewriteTables(TestEncoded(tables), *aligned, nullptr).code(),
            ErrorCode::kInvalidArgument);
}

TEST(FuzzyFdTest, InternedRewriteMatchesStringKeyedSemantics) {
  // Parity test for the ValueDict-interned rewrite scan: the historical
  // implementation looked every cell up by ToString, so (1) repeated cells
  // are all rewritten and (2) typed twins — distinct Values sharing one
  // string rendering, like Int(5) and String("5") — are both rewritten by
  // a map entry for that string. The interned scan must preserve both
  // behaviors while doing the string lookup once per distinct Value.
  auto a = Table::FromRows("A", {"k"}, {{S("05")}});
  auto b = Table::FromRows("B", {"k"},
                           {{S("5")},
                            {Value::Int(5)},
                            {S("5")},
                            {Value::Int(5)},
                            {S("other")}});
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<Table> tables{*a, *b};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());

  FuzzyFdOptions opts;
  opts.session_dict = TestSessionDict();
  // Deterministic toy distance: "05" ~ "5" are near, everything else far,
  // so the assignment merges exactly that pair. Tie on global frequency →
  // the earlier column's "05" is elected representative, producing the
  // rewrite map {"5" → S("05")} on B.k.
  opts.matcher.string_distance = [](std::string_view x, std::string_view y) {
    return (x == "05" && y == "5") || (x == "5" && y == "05") ? 0.1 : 1.0;
  };
  FuzzyFdReport report;
  auto rewritten = FuzzyFullDisjunction(opts).RewriteTables(
      TestEncoded(tables), *aligned, &report);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

  // All four "5"-rendering cells rewrote — both String twins and both Int
  // twins — and the unrelated value did not.
  EXPECT_EQ(report.values_rewritten, 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ((*rewritten)[1].At(r, 0), S("05")) << "row " << r;
  }
  EXPECT_EQ((*rewritten)[1].At(4, 0), S("other"));
  EXPECT_EQ((*rewritten)[0].At(0, 0), S("05"));  // representative untouched
}

TEST(FuzzyFdTest, TypedValuesSurviveRewrite) {
  // Numeric join columns: equal ints match in the exact pre-pass and must
  // remain Int64 after rewriting (no stringification).
  auto t1 = Table::FromRows("A", {"id", "x"},
                            {{Value::Int(1), S("a")}, {Value::Int(2), S("b")}});
  auto t2 = Table::FromRows("B", {"id", "y"},
                            {{Value::Int(1), S("p")}, {Value::Int(3), S("q")}});
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::vector<Table> tables{*t1, *t2};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FuzzyFullDisjunction fuzzy(PaperFuzzyFdOptions());
  auto rewritten = fuzzy.RewriteTables(TestEncoded(tables), *aligned, nullptr);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ((*rewritten)[0].At(0, 0).type(), ValueType::kInt64);
  auto result =
      fuzzy.RunToTuples(TestEncoded(tables), *aligned, /*fuzzy=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 3u);  // join on 1, singles for 2 and 3
}

}  // namespace
}  // namespace lakefuzz
