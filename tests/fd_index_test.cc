// Tests for the dictionary-encoded FD core: ValueDict interning, the CSR
// posting-list join graph (validated against a brute-force materialized
// adjacency), the parallel index build, the non-quadratic memory guarantee,
// and thread-count invariance of the full pipeline on a corrupted-IMDB
// fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "core/fuzzy_fd.h"
#include "datagen/corruption.h"
#include "datagen/imdb.h"
#include "embedding/model_zoo.h"
#include "fd/full_disjunction.h"
#include "fd/oracle.h"
#include "fd/problem.h"
#include "fd/value_dict.h"
#include "fd_problems.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

// ---------------------------------------------------------------- ValueDict

TEST(ValueDictTest, InternAssignsDenseCodesInFirstSeenOrder) {
  ValueDict dict;
  EXPECT_EQ(dict.Intern(Value::Null()), ValueDict::kNullCode);
  uint32_t a = dict.Intern(S("alpha"));
  uint32_t b = dict.Intern(S("beta"));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(dict.Intern(S("alpha")), a);  // idempotent
  EXPECT_EQ(dict.NumDistinct(), 2u);
  EXPECT_EQ(dict.Decode(a), S("alpha"));
  EXPECT_EQ(dict.Decode(b), S("beta"));
  EXPECT_TRUE(dict.Decode(ValueDict::kNullCode).is_null());
}

TEST(ValueDictTest, TypeSensitiveLikeValueEquality) {
  // FD joins on value identity; Int(1), Double(1.0), String("1") must not
  // alias under interning.
  ValueDict dict;
  uint32_t i = dict.Intern(Value::Int(1));
  uint32_t d = dict.Intern(Value::Double(1.0));
  uint32_t s = dict.Intern(S("1"));
  EXPECT_NE(i, d);
  EXPECT_NE(i, s);
  EXPECT_NE(d, s);
  EXPECT_EQ(dict.Find(Value::Int(1)), i);
  EXPECT_EQ(dict.Find(Value::Double(1.0)), d);
  EXPECT_EQ(dict.Find(S("missing")), ValueDict::kNullCode);
}

TEST(ValueDictTest, SurvivesRehashGrowth) {
  ValueDict dict;
  std::vector<uint32_t> codes;
  for (int i = 0; i < 5000; ++i) {
    codes.push_back(dict.Intern(Value::Int(i)));
  }
  EXPECT_EQ(dict.NumDistinct(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(dict.Intern(Value::Int(i)), codes[i]);
    EXPECT_EQ(dict.Decode(codes[i]), Value::Int(i));
  }
}

// ------------------------------------------------- CSR vs. brute adjacency

struct IndexShape {
  size_t num_tables;
  size_t rows_per_table;
  size_t num_columns;
  size_t value_domain;
  uint64_t seed;
};

std::vector<Table> RandomTables(const IndexShape& shape, Rng* rng) {
  return UniformTables(shape.num_tables, shape.rows_per_table,
                       shape.num_columns, shape.value_domain,
                       /*null_rate=*/0.35, rng);
}

/// The definition, materialized pairwise over the padded input rows: i and
/// j are adjacent iff they come from different tables and share an equal
/// non-null value on some column.
std::vector<std::vector<uint32_t>> BruteAdjacency(
    const std::vector<PaddedRow>& rows) {
  const size_t n = rows.size();
  std::vector<std::vector<uint32_t>> adj(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rows[i].table_id == rows[j].table_id) continue;
      const auto& a = rows[i].values;
      const auto& b = rows[j].values;
      for (size_t c = 0; c < a.size(); ++c) {
        if (!a[c].is_null() && !b[c].is_null() && a[c] == b[c]) {
          adj[i].push_back(j);
          adj[j].push_back(i);
          break;
        }
      }
    }
  }
  return adj;
}

/// Connected components over the brute adjacency (BFS), in the same
/// canonical form as FdProblem::Components().
std::vector<std::vector<uint32_t>> BruteComponents(
    const std::vector<std::vector<uint32_t>>& adj) {
  const size_t n = adj.size();
  std::vector<char> visited(n, 0);
  std::vector<std::vector<uint32_t>> comps;
  for (uint32_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    std::vector<uint32_t> comp;
    std::vector<uint32_t> frontier{start};
    visited[start] = 1;
    while (!frontier.empty()) {
      uint32_t t = frontier.back();
      frontier.pop_back();
      comp.push_back(t);
      for (uint32_t nb : adj[t]) {
        if (!visited[nb]) {
          visited[nb] = 1;
          frontier.push_back(nb);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

class CsrIndexProperty : public ::testing::TestWithParam<IndexShape> {};

TEST_P(CsrIndexProperty, NeighborsAndComponentsMatchBruteForce) {
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<Table> tables = RandomTables(GetParam(), &rng);
    auto aligned = AlignByName(TestEncoded(tables));
    ASSERT_TRUE(aligned.ok());
    FdProblem problem = EncodedProblemByName(tables);
    problem.BuildIndex();
    auto brute = BruteAdjacency(PaddedRows(tables, *aligned));
    for (uint32_t tid = 0; tid < problem.num_tuples(); ++tid) {
      EXPECT_EQ(problem.Neighbors(tid), brute[tid])
          << "trial " << trial << " tid " << tid;
    }
    EXPECT_EQ(problem.Components(), BruteComponents(brute)) << trial;
  }
}

TEST_P(CsrIndexProperty, ParallelBuildMatchesSerial) {
  Rng rng(GetParam().seed ^ 0xABCD);
  for (int trial = 0; trial < 5; ++trial) {
    FdProblem serial = EncodedProblemByName(RandomTables(GetParam(), &rng));
    FdProblem parallel = serial;
    serial.BuildIndex();
    ThreadPool pool(4);
    parallel.BuildIndex(&pool);
    ASSERT_EQ(serial.num_tuples(), parallel.num_tuples());
    for (uint32_t tid = 0; tid < serial.num_tuples(); ++tid) {
      EXPECT_EQ(serial.Neighbors(tid), parallel.Neighbors(tid)) << tid;
      // Code rows must be identical too: the index build reads the gathered
      // rows and never rewrites them, whatever the shard schedule.
      for (size_t c = 0; c < serial.num_columns(); ++c) {
        EXPECT_EQ(serial.CodeRow(tid)[c], parallel.CodeRow(tid)[c]);
      }
    }
    EXPECT_EQ(serial.Components(), parallel.Components());
    EXPECT_EQ(serial.index_stats().posting_entries,
              parallel.index_stats().posting_entries);
    EXPECT_EQ(serial.index_stats().posting_lists,
              parallel.index_stats().posting_lists);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CsrIndexProperty,
    ::testing::Values(IndexShape{2, 4, 3, 2, 101}, IndexShape{3, 6, 3, 3, 202},
                      IndexShape{4, 8, 4, 2, 303}, IndexShape{3, 10, 5, 4, 404},
                      IndexShape{5, 5, 4, 6, 505}, IndexShape{2, 12, 2, 3, 606}),
    [](const ::testing::TestParamInfo<IndexShape>& info) {
      const auto& p = info.param;
      return "t" + std::to_string(p.num_tables) + "r" +
             std::to_string(p.rows_per_table) + "c" +
             std::to_string(p.num_columns) + "d" +
             std::to_string(p.value_domain);
    });

// ---------------------------------------------- the skipping iterator

TEST(CoPostedIteratorProperty, VisitsCrossTableNeighborsOfUnmaskedTables) {
  // Random shapes with uneven table sizes, one table left empty (an empty
  // TID block), and a random table mask per tuple that always masks the
  // tuple's own table, as ForEachCoPosted requires. The deduplicated
  // visits must be exactly the brute cross-table neighbours from unmasked
  // tables.
  Rng rng(909);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t num_tables = 2 + rng.Uniform(4);
    const size_t max_rows = 1 + rng.Uniform(10);
    std::vector<Table> tables =
        UniformTables(num_tables, max_rows, 1 + rng.Uniform(4),
                      2 + rng.Uniform(4), /*null_rate=*/0.35, &rng);
    const size_t empty = rng.Uniform(num_tables);
    for (size_t l = 0; l < num_tables; ++l) {
      std::vector<size_t> keep(l == empty ? 0 : 1 + rng.Uniform(max_rows));
      for (size_t r = 0; r < keep.size(); ++r) keep[r] = r;
      tables[l] = tables[l].SelectRows(keep);
    }
    auto aligned = AlignByName(TestEncoded(tables));
    ASSERT_TRUE(aligned.ok());
    FdProblem problem = EncodedProblemByName(tables);
    problem.BuildIndex();
    const auto brute = BruteAdjacency(PaddedRows(tables, *aligned));
    std::vector<char> skip(num_tables);
    for (uint32_t tid = 0; tid < problem.num_tuples(); ++tid) {
      for (char& m : skip) m = rng.Bernoulli(0.4) ? 1 : 0;
      skip[problem.table_id(tid)] = 1;
      std::vector<uint32_t> visited;
      problem.ForEachCoPosted(tid, skip.data(), [&](uint32_t other) {
        visited.push_back(other);
      });
      std::sort(visited.begin(), visited.end());
      visited.erase(std::unique(visited.begin(), visited.end()),
                    visited.end());
      std::vector<uint32_t> expected;
      for (uint32_t nb : brute[tid]) {
        if (!skip[problem.table_id(nb)]) expected.push_back(nb);
      }
      EXPECT_EQ(visited, expected) << "trial " << trial << " tid " << tid;
    }
  }
}

TEST(FdProblemTest, SameTableValueAddsNoJoinEdge) {
  // A = {k, role} holds (1, actor) and (2, actor); B = {k, x} holds
  // (1, u). "actor" is shared within A only, and an FD set holds at most
  // one tuple per table, so it is no join edge: only the k = 1 list is
  // kept and A's second tuple is a component of its own.
  auto a = Table::FromRows("A", {"k", "role"},
                           {{Value::Int(1), S("actor")},
                            {Value::Int(2), S("actor")}});
  auto b = Table::FromRows("B", {"k", "x"}, {{Value::Int(1), S("u")}});
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<Table> tables{*a, *b};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  problem->BuildIndex();
  EXPECT_EQ(problem->index_stats().posting_lists, 1u);
  EXPECT_EQ(problem->Components(),
            (std::vector<std::vector<uint32_t>>{{0, 2}, {1}}));

  auto result = FullDisjunction().Run(&*problem);
  ASSERT_TRUE(result.ok());
  auto oracle = NaiveFdOracle(tables, *aligned);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(result->tuples, *oracle);
}

// --------------------------------------------------- multi-shard at scale

TEST(CsrIndexShardedTest, LargeProblemParallelBuildMatchesSerial) {
  // Above PostingShardCount's gate (2^16 cells) the pooled build takes the
  // truly sharded path: concurrent posting-map scans, AtomicUnionFind
  // merge, parallel CSR range fill. 30k tuples × 6 columns = 180k cells →
  // 3 shards with an 8-thread pool. Everything observable must equal the
  // serial build.
  constexpr uint32_t kTuples = 30000;
  constexpr size_t kCols = 6;
  std::vector<std::string> names;
  for (size_t c = 0; c < kCols; ++c) names.push_back("c" + std::to_string(c));
  std::vector<Table> tables;
  for (int l = 0; l < 5; ++l) {
    tables.emplace_back("t" + std::to_string(l), Schema::FromNames(names));
  }
  Rng rng(777);
  for (uint32_t i = 0; i < kTuples; ++i) {
    std::vector<Value> vals(kCols);
    for (size_t c = 0; c < kCols; ++c) {
      if (rng.Bernoulli(0.3)) continue;  // null
      // ~5k distinct join values → thousands of multi-tuple postings.
      vals[c] = Value::Int(static_cast<int64_t>(rng.Uniform(5000)));
    }
    ASSERT_TRUE(tables[i % 5].AppendRow(std::move(vals)).ok());
  }
  FdProblem serial = EncodedProblemByName(tables);
  FdProblem parallel = serial;
  serial.BuildIndex();
  ThreadPool pool(8);
  parallel.BuildIndex(&pool);
  EXPECT_GT(serial.index_stats().posting_entries, size_t{1} << 16);
  EXPECT_EQ(serial.index_stats().posting_lists,
            parallel.index_stats().posting_lists);
  EXPECT_EQ(serial.index_stats().posting_entries,
            parallel.index_stats().posting_entries);
  EXPECT_EQ(serial.index_stats().distinct_values,
            parallel.index_stats().distinct_values);
  ASSERT_EQ(serial.Components(), parallel.Components());
  for (uint32_t tid = 0; tid < kTuples; tid += 97) {
    ASSERT_EQ(serial.Neighbors(tid), parallel.Neighbors(tid)) << tid;
  }
  for (uint32_t tid = 0; tid < kTuples; ++tid) {
    ASSERT_EQ(0, std::memcmp(serial.CodeRow(tid), parallel.CodeRow(tid),
                             kCols * sizeof(uint32_t)))
        << tid;
  }
}

TEST(CsrIndexShardedTest, LargeSubsumptionShardedMatchesSerial) {
  // Same gate for EliminateSubsumedCodes: 24k tuples × 6 columns keeps the
  // pooled run on the multi-shard posting path. Codes are drawn from a
  // small domain with frequent nulls so duplicates and genuine subsumption
  // chains both occur.
  constexpr uint32_t kTuples = 24000;
  constexpr size_t kCols = 6;
  Rng rng(888);
  std::vector<FdCodeTuple> tuples(kTuples);
  for (uint32_t i = 0; i < kTuples; ++i) {
    tuples[i].codes.resize(kCols, ValueDict::kNullCode);
    for (size_t c = 0; c < kCols; ++c) {
      if (rng.Bernoulli(0.4)) continue;
      tuples[i].codes[c] = 1 + static_cast<uint32_t>(rng.Uniform(40));
    }
    tuples[i].tids = {i};
  }
  auto serial = EliminateSubsumedCodes(tuples);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ThreadPool pool(8);
  auto parallel = EliminateSubsumedCodes(tuples, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_GT(serial->size(), 0u);
  ASSERT_LT(serial->size(), static_cast<size_t>(kTuples));  // some eliminated
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    ASSERT_EQ((*serial)[i], (*parallel)[i]) << i;
  }
}

// ------------------------------------------------------ non-quadratic index

TEST(CsrIndexStressTest, SharedValueByManyTuplesStaysLinear) {
  // One value shared by 10k tuples of two tables: the legacy adjacency
  // materialized ~10^8 edges here; the CSR index must store one posting
  // list of 10k entries. Runs under ASan in CI, so an accidental O(k²)
  // regression blows the time/memory budget immediately.
  constexpr uint32_t kTuples = 10000;
  std::vector<Table> tables(
      2, Table("t", Schema::FromNames({"shared", "unique"})));
  for (uint32_t i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(tables[i % 2]
                    .AppendRow({S("hub"), Value::Int(static_cast<int64_t>(i))})
                    .ok());
  }
  FdProblem problem = EncodedProblemByName(tables);
  problem.BuildIndex();
  // One multi-tuple posting list ("hub") with kTuples entries; the unique
  // ints contribute none.
  EXPECT_EQ(problem.index_stats().posting_lists, 1u);
  EXPECT_EQ(problem.index_stats().posting_entries, kTuples);
  EXPECT_EQ(problem.index_stats().distinct_values, 1u + kTuples);
  ASSERT_EQ(problem.Components().size(), 1u);
  EXPECT_EQ(problem.Components()[0].size(), kTuples);
  // The hub list alternates between the two tables: each tuple's
  // neighbours are the other table's half.
  EXPECT_EQ(problem.Neighbors(0).size(), kTuples / 2);
  EXPECT_EQ(problem.Neighbors(kTuples / 2).size(), kTuples / 2);
}

TEST(CsrIndexStressTest, SharedValueWithinOneTableAddsNoEdge) {
  // One value shared by 10k tuples of a single table: no two of them can
  // sit in one FD set, so the list is no join edge and is not kept. Every
  // tuple is a singleton component.
  constexpr uint32_t kTuples = 10000;
  std::vector<Table> tables(
      1, Table("t", Schema::FromNames({"shared", "unique"})));
  for (uint32_t i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(tables[0]
                    .AppendRow({S("hub"), Value::Int(static_cast<int64_t>(i))})
                    .ok());
  }
  FdProblem problem = EncodedProblemByName(tables);
  problem.BuildIndex();
  EXPECT_EQ(problem.index_stats().posting_lists, 0u);
  EXPECT_EQ(problem.index_stats().posting_entries, 0u);
  ASSERT_EQ(problem.Components().size(), kTuples);
  for (uint32_t tid = 0; tid < kTuples; ++tid) {
    ASSERT_EQ(problem.Components()[tid], std::vector<uint32_t>{tid});
  }
  EXPECT_TRUE(problem.Neighbors(0).empty());
}

// ------------------------------------------- thread-count output invariance

/// A small corrupted-IMDB instance: the generator's equi-join topology with
/// seeded syntactic noise injected into a fraction of the string cells.
std::vector<Table> CorruptedImdbTables() {
  ImdbOptions gen;
  gen.target_tuples = 600;
  ImdbBenchmark bench = GenerateImdb(gen);
  Rng rng(20260730);
  CorruptionConfig config;
  config.typo = 1.0;
  config.case_noise = 0.5;
  for (Table& t : bench.tables) {
    for (size_t r = 0; r < t.NumRows(); ++r) {
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        const Value& v = t.At(r, c);
        if (v.is_null() || v.type() != ValueType::kString) continue;
        if (!rng.Bernoulli(0.08)) continue;
        t.Set(r, c, Value::String(Corrupt(&rng, v.AsString(), config)));
      }
    }
  }
  return std::move(bench.tables);
}

TEST(ThreadInvarianceTest, CorruptedImdbIdenticalAcrossThreadCounts) {
  auto tables = CorruptedImdbTables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());

  SessionDict dict;
  const EncodedTables encoded = EncodeTables(tables, &dict);
  FuzzyFdOptions serial_opts;
  serial_opts.matcher.model = MakeModel(ModelKind::kMistral);
  serial_opts.session_dict = &dict;
  auto reference = FuzzyFullDisjunction(serial_opts)
                       .RunToTuples(encoded, *aligned, /*fuzzy=*/true);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->tuples.size(), 0u);

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    FuzzyFdOptions opts = serial_opts;
    opts.pool = &pool;
    auto result = FuzzyFullDisjunction(opts).RunToTuples(
        encoded, *aligned, /*fuzzy=*/true);
    ASSERT_TRUE(result.ok()) << threads;
    ASSERT_EQ(result->tuples.size(), reference->tuples.size()) << threads;
    for (size_t i = 0; i < result->tuples.size(); ++i) {
      EXPECT_EQ(result->tuples[i].values, reference->tuples[i].values)
          << "threads " << threads << " tuple " << i;
      EXPECT_EQ(result->tuples[i].tids, reference->tuples[i].tids)
          << "threads " << threads << " tuple " << i;
    }
  }
}

TEST(ThreadInvarianceTest, RegularFdOnCorruptedImdbMatchesSerial) {
  auto tables = CorruptedImdbTables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  SessionDict dict;
  const EncodedTables encoded = EncodeTables(tables, &dict);
  FuzzyFdOptions serial_opts;
  serial_opts.session_dict = &dict;
  FuzzyFdReport serial_report;
  auto serial = FuzzyFullDisjunction(serial_opts)
                    .RunToTuples(encoded, *aligned, /*fuzzy=*/false,
                                 &serial_report);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial_report.fd_stats.posting_lists, 0u);
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    FuzzyFdOptions opts = serial_opts;
    opts.pool = &pool;
    auto parallel = FuzzyFullDisjunction(opts).RunToTuples(
        encoded, *aligned, /*fuzzy=*/false);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->tuples.size(), serial->tuples.size());
    for (size_t i = 0; i < parallel->tuples.size(); ++i) {
      EXPECT_EQ(parallel->tuples[i].values, serial->tuples[i].values);
      EXPECT_EQ(parallel->tuples[i].tids, serial->tuples[i].tids);
    }
  }
}

}  // namespace
}  // namespace lakefuzz
