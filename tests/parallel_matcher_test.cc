// Tests for the parallel, cache-aware scoring substrate behind
// ValueMatcher::MatchColumns: thread-count determinism on a corrupted-IMDB
// fixture, the EmbeddingCache, and the parallel cost-matrix / edge fillers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "assignment/parallel_cost.h"
#include "core/value_matcher.h"
#include "datagen/corruption.h"
#include "datagen/imdb.h"
#include "embedding/embedding_cache.h"
#include "embedding/model_zoo.h"
#include "embedding/vector_ops.h"
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
    opts.string_distance =
        MakeStringDistance(StringDistanceKind::kNormalizedLevenshtein);
    opts.threshold = 0.35;
    opts.mask_before_solve = true;
    opts.pool = pool.get();
    auto result = ValueMatcher(opts).MatchColumns(columns);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (threads == 1) {
      baseline = *result;
      continue;
    }
    EXPECT_EQ(Canonical(*result), Canonical(baseline));
    EXPECT_EQ(result->stats.cost_evaluations,
              baseline.stats.cost_evaluations);
  }
}

/// Odd-sized columns of random words, where each later column holds a
/// one-letter variant of some column-0 words (near-duplicates the assignment
/// must pair), some exact copies (the pre-pass) and words of its own.
std::vector<std::vector<std::string>> PlantedNearDuplicateColumns() {
  Rng rng(0x5eed);
  std::vector<std::string> base;
  std::set<std::string> seen;
  while (base.size() < 67) {
    std::string w = rng.AlphaString(6 + rng.Uniform(8));
    if (seen.insert(w).second) base.push_back(w);
  }
  std::vector<std::vector<std::string>> columns = {base};
  for (size_t size : {size_t{59}, size_t{71}}) {
    std::vector<std::string> col;
    std::set<std::string> in_col;
    while (col.size() < size) {
      std::string w;
      const double kind = rng.UniformReal();
      if (kind < 0.6) {
        w = base[rng.Uniform(base.size())];
        w[rng.Uniform(w.size())] = static_cast<char>('a' + rng.Uniform(26));
      } else if (kind < 0.7) {
        w = base[rng.Uniform(base.size())];
      } else {
        w = rng.AlphaString(6 + rng.Uniform(8));
      }
      if (in_col.insert(w).second) col.push_back(std::move(w));
    }
    columns.push_back(std::move(col));
  }
  return columns;
}

TEST(ParallelMatcherTest, EmbeddingFillMatchesPerCellPath) {
  // Embedding mode fills dense matrices with the blocked kernel; string
  // mode, given CosineDistancePrenormalized over the same memo's vectors,
  // fills them one cell at a time. Equal costs must give equal matches.
  const auto columns = PlantedNearDuplicateColumns();
  for (size_t dim : {size_t{256}, size_t{300}}) {
    auto memo =
        std::make_shared<EmbeddingCache>(MakeModel(ModelKind::kMistral, dim));
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      ValueMatcherOptions blocked;
      blocked.shared_cache = memo;
      blocked.pool = pool.get();
      ValueMatcherOptions per_cell;
      per_cell.string_distance = [&memo](std::string_view a,
                                         std::string_view b) {
        return CosineDistancePrenormalized(
            *memo->GetNormalized(std::string(a)),
            *memo->GetNormalized(std::string(b)));
      };
      per_cell.pool = pool.get();
      auto got = ValueMatcher(blocked).MatchColumns(columns);
      auto want = ValueMatcher(per_cell).MatchColumns(columns);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      SCOPED_TRACE(::testing::Message() << "dim " << dim << ", " << threads
                                        << " threads");
      ASSERT_EQ(got->groups.size(), want->groups.size());
      for (size_t g = 0; g < got->groups.size(); ++g) {
        EXPECT_EQ(got->groups[g].members, want->groups[g].members);
        EXPECT_EQ(got->groups[g].representative,
                  want->groups[g].representative);
      }
      EXPECT_EQ(got->stats.exact_matches, want->stats.exact_matches);
      EXPECT_EQ(got->stats.assignment_matches,
                want->stats.assignment_matches);
      EXPECT_GT(got->stats.assignment_matches, 0u);
      EXPECT_EQ(got->stats.dense_solves, 2u);
      EXPECT_EQ(got->stats.cost_evaluations, want->stats.cost_evaluations);
    }
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
  constexpr size_t kRows = 97;
  constexpr size_t kCols = 53;
  auto cell = [](size_t r, size_t c) {
    return static_cast<double>(r * 131 + c * 17) / 1000.0;
  };
  auto fill = [&](size_t lo, size_t hi, double* out) {
    for (size_t r = lo; r < hi; ++r) {
      for (size_t c = 0; c < kCols; ++c) *out++ = cell(r, c);
    }
  };
  // Every cell starts at -1, below every value the fill writes, so a row
  // range that is skipped or misplaced shows.
  CostMatrix serial(kRows, kCols, -1.0);
  FillCostMatrixParallel(&serial, fill, nullptr);
  ThreadPool pool(4);
  CostMatrix parallel(kRows, kCols, -1.0);
  FillCostMatrixParallel(&parallel, fill, &pool);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      EXPECT_EQ(serial.at(r, c), cell(r, c));
      EXPECT_EQ(parallel.at(r, c), cell(r, c));
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

}  // namespace
}  // namespace lakefuzz
