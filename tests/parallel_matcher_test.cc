// Tests for the parallel, cache-aware scoring substrate behind
// ValueMatcher::MatchColumns: thread-count determinism on a corrupted-IMDB
// fixture, the EmbeddingCache, the parallel cost-matrix / edge fillers, and
// the pruning string-distance fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "assignment/parallel_cost.h"
#include "core/value_matcher.h"
#include "datagen/corruption.h"
#include "datagen/imdb.h"
#include "embedding/embedding_cache.h"
#include "embedding/model_zoo.h"
#include "fd/session_dict.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Aligning columns derived from IMDB titles: column 0 holds clean
/// primaryTitle values, columns 1 and 2 independently corrupted variants
/// (typos, casing, punctuation — the Auto-Join corruption classes).
std::vector<std::vector<std::string>> CorruptedImdbColumns(size_t max_values) {
  ImdbOptions gen;
  gen.target_tuples = 3000;
  ImdbBenchmark bench = GenerateImdb(gen);
  const Table* title_basics = nullptr;
  for (const auto& t : bench.tables) {
    if (t.name() == "title_basics") title_basics = &t;
  }
  EXPECT_NE(title_basics, nullptr);
  SessionDict dict;
  const auto record = dict.Encode(*title_basics, "title_basics");
  std::vector<std::string> titles;
  for (uint32_t code : DistinctCodes(record->codes[1], max_values)) {
    titles.push_back(dict.dict().Decode(code).ToString());
  }
  EXPECT_GE(titles.size(), 50u);

  CorruptionConfig noisy;
  noisy.typo = 0.6;
  noisy.case_noise = 0.4;
  noisy.punctuation = 0.3;
  std::vector<std::vector<std::string>> columns(3);
  columns[0] = titles;
  Rng rng(0xf1c5);
  for (size_t c = 1; c < 3; ++c) {
    std::set<std::string> seen;
    for (const auto& t : titles) {
      std::string corrupted = Corrupt(&rng, t, noisy);
      if (seen.insert(corrupted).second) columns[c].push_back(corrupted);
    }
    rng.Shuffle(&columns[c]);
  }
  return columns;
}

/// Canonical, comparable form of a match result.
std::vector<std::vector<std::pair<size_t, std::string>>> Canonical(
    const ValueMatchResult& result) {
  std::vector<std::vector<std::pair<size_t, std::string>>> groups;
  groups.reserve(result.groups.size());
  for (const auto& g : result.groups) groups.push_back(g.members);
  std::sort(groups.begin(), groups.end());
  return groups;
}

// ------------------------------------------------- thread-count determinism

TEST(ParallelMatcherTest, EmbeddingResultsIdenticalAcrossThreadCounts) {
  auto columns = CorruptedImdbColumns(120);
  ValueMatchResult baseline;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ValueMatcherOptions opts;
    opts.model = MakeModel(ModelKind::kMistral, 256);
    opts.pool = pool.get();
    auto result = ValueMatcher(opts).MatchColumns(columns);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (threads == 1) {
      baseline = *result;
      continue;
    }
    EXPECT_EQ(Canonical(*result), Canonical(baseline))
        << "groups diverged at threads=" << threads;
    EXPECT_EQ(result->stats.exact_matches, baseline.stats.exact_matches);
    EXPECT_EQ(result->stats.assignment_matches,
              baseline.stats.assignment_matches);
    EXPECT_EQ(result->stats.cost_evaluations, baseline.stats.cost_evaluations);
    EXPECT_EQ(result->stats.thresholds_used, baseline.stats.thresholds_used);
  }
}

TEST(ParallelMatcherTest, StringDistanceResultsIdenticalAcrossThreadCounts) {
  auto columns = CorruptedImdbColumns(120);
  ValueMatchResult baseline;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ValueMatcherOptions opts;
    opts.bounded_string_distance =
        MakeBoundedStringDistance(StringDistanceKind::kNormalizedLevenshtein);
    opts.threshold = 0.35;
    // Masking makes the θ-budget pruning path active (see value_matcher.cc);
    // this test then covers pruning and threading together.
    opts.mask_before_solve = true;
    opts.pool = pool.get();
    auto result = ValueMatcher(opts).MatchColumns(columns);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (threads == 1) {
      baseline = *result;
      continue;
    }
    EXPECT_EQ(Canonical(*result), Canonical(baseline));
    EXPECT_EQ(result->stats.pruned_evaluations,
              baseline.stats.pruned_evaluations);
  }
}

TEST(ParallelMatcherTest, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(6), 6u);

  auto columns = CorruptedImdbColumns(60);
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral, 256);
  auto serial = ValueMatcher(opts).MatchColumns(columns);
  ThreadPool pool(ResolveNumThreads(0));
  opts.pool = &pool;
  auto hardware = ValueMatcher(opts).MatchColumns(columns);
  ASSERT_TRUE(serial.ok() && hardware.ok());
  EXPECT_EQ(Canonical(*serial), Canonical(*hardware));
}

// ------------------------------------------------------------ EmbeddingCache

TEST(EmbeddingCacheTest, MemoizesAndNormalizes) {
  auto model = MakeModel(ModelKind::kMistral, 128);
  EmbeddingCache cache(model);
  auto a = cache.GetNormalized("Berlin");
  auto b = cache.GetNormalized("Berlin");
  EXPECT_EQ(a.get(), b.get());  // shared entry, not a copy
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(Norm(*a), 1.0, 1e-5);
  // Cached vector matches a direct embed (model is already unit-norm).
  Vec direct = model->Embed("Berlin");
  ASSERT_EQ(a->size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) EXPECT_EQ((*a)[i], direct[i]);
}

TEST(EmbeddingCacheTest, PrenormalizedDistanceMatchesGeneralCosine) {
  auto model = MakeModel(ModelKind::kMistral, 128);
  EmbeddingCache cache(model);
  auto a = cache.GetNormalized("Berlin");
  auto b = cache.GetNormalized("Berlinn");
  EXPECT_NEAR(CosineDistancePrenormalized(*a, *b),
              CosineDistance(model->Embed("Berlin"), model->Embed("Berlinn")),
              1e-5);
}

// ----------------------------------------------------------- parallel fills

TEST(ParallelCostTest, FillMatchesSerialReference) {
  auto fn = [](size_t r, size_t c) {
    return static_cast<double>(r * 131 + c * 17) / 1000.0;
  };
  CostMatrix serial(97, 53);
  FillCostMatrixParallel(&serial, fn, nullptr);
  ThreadPool pool(4);
  CostMatrix parallel(97, 53);
  FillCostMatrixParallel(&parallel, fn, &pool);
  for (size_t r = 0; r < serial.rows(); ++r) {
    for (size_t c = 0; c < serial.cols(); ++c) {
      EXPECT_EQ(serial.at(r, c), parallel.at(r, c));
    }
  }
}

TEST(ParallelCostTest, EdgeScoringMatchesSerialReference) {
  std::vector<SparseEdge> edges;
  for (size_t i = 0; i < 5000; ++i) {
    edges.push_back(SparseEdge{i % 90, i % 41, 0.0});
  }
  auto fn = [](size_t r, size_t c) {
    return static_cast<double>(r * 7 + c * 3) / 100.0;
  };
  std::vector<SparseEdge> serial = edges;
  ScoreEdgesParallel(&serial, fn, nullptr);
  ThreadPool pool(4);
  std::vector<SparseEdge> parallel = edges;
  ScoreEdgesParallel(&parallel, fn, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cost, parallel[i].cost);
  }
}

// ----------------------------------------------------- pruning equivalence

TEST(ParallelMatcherTest, BoundedDistanceNeverPrunesInSolveThenFilterMode) {
  // Default dense mode solves the unconstrained matrix and filters after;
  // a capped cost could change the optimum, so the matcher lifts the budget
  // to 1.0 there — every value exact, zero prunes, identical groups.
  auto columns = CorruptedImdbColumns(100);
  ValueMatcherOptions plain;
  plain.string_distance =
      MakeStringDistance(StringDistanceKind::kNormalizedLevenshtein);
  plain.threshold = 0.35;
  auto unpruned = ValueMatcher(plain).MatchColumns(columns);
  ASSERT_TRUE(unpruned.ok());

  ValueMatcherOptions fast = plain;
  fast.string_distance = nullptr;
  fast.bounded_string_distance =
      MakeBoundedStringDistance(StringDistanceKind::kNormalizedLevenshtein);
  auto bounded = ValueMatcher(fast).MatchColumns(columns);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(Canonical(*bounded), Canonical(*unpruned));
  EXPECT_EQ(bounded->stats.pruned_evaluations, 0u);
  EXPECT_EQ(bounded->stats.cost_evaluations, unpruned->stats.cost_evaluations);
}

TEST(ParallelMatcherTest, PruningPreservesGroupsWhenMaskingBeforeSolve) {
  // With mask_before_solve, any cost >= θ becomes forbidden whether pruned
  // or computed exactly — pruning is provably result-preserving and active.
  auto columns = CorruptedImdbColumns(100);
  ValueMatcherOptions plain;
  plain.string_distance =
      MakeStringDistance(StringDistanceKind::kNormalizedLevenshtein);
  plain.threshold = 0.35;
  plain.mask_before_solve = true;
  auto unpruned = ValueMatcher(plain).MatchColumns(columns);
  ASSERT_TRUE(unpruned.ok());
  EXPECT_EQ(unpruned->stats.pruned_evaluations, 0u);

  ValueMatcherOptions fast = plain;
  fast.string_distance = nullptr;
  fast.bounded_string_distance =
      MakeBoundedStringDistance(StringDistanceKind::kNormalizedLevenshtein);
  auto pruned = ValueMatcher(fast).MatchColumns(columns);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(Canonical(*pruned), Canonical(*unpruned));
  // Shuffled corrupted titles are mostly far apart: the ladder must fire.
  EXPECT_GT(pruned->stats.pruned_evaluations, 0u);
  EXPECT_EQ(pruned->stats.cost_evaluations, unpruned->stats.cost_evaluations);
}

}  // namespace
}  // namespace lakefuzz
