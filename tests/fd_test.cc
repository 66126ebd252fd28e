// Tests for src/fd: aligned schemas, the FD problem, subsumption, and the
// production Full Disjunction executor — validated against the brute-force
// oracle and against the paper's Fig. 1, inline and on pools of every size.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "fd/aligned_schema.h"
#include "fd/full_disjunction.h"
#include "fd/oracle.h"
#include "fd/problem.h"
#include "fd/subsumption.h"
#include "fd_problems.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

/// The executor's parallelism levels under test: inline (null pool) and
/// pools of 1, 2 and 8 workers.
const std::vector<ThreadPool*>& ExecutorPools() {
  static ThreadPool one(1), two(2), eight(8);
  static const std::vector<ThreadPool*> pools = {nullptr, &one, &two, &eight};
  return pools;
}

size_t Workers(const ThreadPool* pool) {
  return pool == nullptr ? 0 : pool->num_threads();
}

// The paper's Fig. 1 tables (equi-join case).
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

// ---------------------------------------------------------------- AlignedSchema

TEST(AlignedSchemaTest, AlignByNameMergesEqualHeaders) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  // Universal columns: City, Country, VacRate, TotalCases, DeathRate.
  EXPECT_EQ(aligned->NumUniversal(), 5u);
  EXPECT_EQ(aligned->universal_names[0], "City");
  // T2's City (its column 1) maps to the same universal column as T1's.
  EXPECT_EQ(aligned->column_map[1][1], aligned->column_map[0][0]);
}

TEST(AlignedSchemaTest, AlignByNameRejectsDuplicateHeaders) {
  Table bad("bad", Schema::FromNames({"x", "x"}));
  auto aligned = AlignByName(TestEncoded({bad}));
  EXPECT_FALSE(aligned.ok());
}

TEST(AlignedSchemaTest, SourcesOfListsTableOrder) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto sources = aligned->SourcesOf(0);  // City
  ASSERT_EQ(sources.size(), 3u);
  EXPECT_EQ(sources[0], (std::pair<size_t, size_t>{0, 0}));
  EXPECT_EQ(sources[1], (std::pair<size_t, size_t>{1, 1}));
  EXPECT_EQ(sources[2], (std::pair<size_t, size_t>{2, 0}));
}

TEST(AlignedSchemaTest, ValidateCatchesBadMappings) {
  const EncodedTables tables = TestEncoded(Fig1Tables());
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());
  AlignedSchema broken = *aligned;
  broken.column_map[0][1] = broken.column_map[0][0];  // two cols → same u
  EXPECT_FALSE(ValidateAlignedSchema(broken, tables).ok());
  AlignedSchema out_of_range = *aligned;
  out_of_range.column_map[0][0] = 99;
  EXPECT_FALSE(ValidateAlignedSchema(out_of_range, tables).ok());
  AlignedSchema wrong_width = *aligned;
  wrong_width.column_map[0].pop_back();
  EXPECT_FALSE(ValidateAlignedSchema(wrong_width, tables).ok());
}

// ---------------------------------------------------------------- FdProblem

TEST(FdProblemTest, BuildPadsWithNulls) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(problem->num_tuples(), 11u);
  EXPECT_EQ(problem->num_columns(), 5u);
  // First T1 tuple: City/Country set, rest null.
  const uint32_t* t0 = problem->CodeRow(0);
  EXPECT_EQ(problem->table_id(0), 0u);
  EXPECT_EQ(problem->dict().Decode(t0[0]), S("Berlinn"));
  EXPECT_EQ(t0[2], FdProblem::kNullCode);
}

TEST(FdProblemTest, NeighborsViaSharedValues) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  problem->BuildIndex();
  // TID 1 = (Toronto, Canada); TID 4 = T2 (CA, Toronto, 83%): share City.
  const auto& n1 = problem->Neighbors(1);
  EXPECT_NE(std::find(n1.begin(), n1.end(), 4u), n1.end());
  // Berlinn (TID 0) has no equal value anywhere.
  EXPECT_TRUE(problem->Neighbors(0).empty());
}

TEST(FdProblemTest, ComponentsPartitionTuples) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  problem->BuildIndex();
  size_t total = 0;
  std::set<uint32_t> seen;
  for (const auto& comp : problem->Components()) {
    total += comp.size();
    for (uint32_t t : comp) EXPECT_TRUE(seen.insert(t).second);
  }
  EXPECT_EQ(total, problem->num_tuples());
}

// ---------------------------------------------------------------- Subsumption

FdResultTuple MakeTuple(std::vector<Value> values, std::vector<uint32_t> tids) {
  FdResultTuple t;
  t.values = std::move(values);
  t.tids = std::move(tids);
  return t;
}

constexpr uint32_t kNull = FdProblem::kNullCode;

/// A code tuple; codes 1, 2, 3, ... stand for distinct values.
FdCodeTuple CodeTuple(std::vector<uint32_t> codes, std::vector<uint32_t> tids) {
  FdCodeTuple t;
  t.codes = std::move(codes);
  t.tids = std::move(tids);
  return t;
}

std::vector<FdCodeTuple> Eliminate(std::vector<FdCodeTuple> tuples) {
  auto result = EliminateSubsumedCodes(std::move(tuples));
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(SubsumptionTest, SubsumesSemantics) {
  auto big = MakeTuple({S("a"), S("b"), S("c")}, {0, 1});
  auto small = MakeTuple({S("a"), Value::Null(), S("c")}, {0});
  auto conflicting = MakeTuple({S("a"), S("X"), Value::Null()}, {2});
  EXPECT_TRUE(Subsumes(big, small));
  EXPECT_FALSE(Subsumes(small, big));
  EXPECT_TRUE(Subsumes(big, big));
  EXPECT_FALSE(Subsumes(big, conflicting));
}

TEST(SubsumptionTest, EliminatesStrictlySubsumed) {
  auto result = Eliminate(
      {CodeTuple({1, kNull}, {0}), CodeTuple({1, 2}, {0, 1})});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].codes[1], 2u);
}

TEST(SubsumptionTest, KeepsIncomparableTuples) {
  auto result = Eliminate(
      {CodeTuple({1, kNull}, {0}), CodeTuple({kNull, 2}, {1})});
  EXPECT_EQ(result.size(), 2u);
}

TEST(SubsumptionTest, CollapsesDuplicatesKeepingSmallestProvenance) {
  auto result = Eliminate({CodeTuple({1}, {5}), CodeTuple({1}, {2})});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].tids, (std::vector<uint32_t>{2}));
}

TEST(SubsumptionTest, EqualValuesDifferentColumnsNotConfused) {
  // Same value in different columns must not alias.
  auto a = CodeTuple({5, kNull}, {0});
  auto b = CodeTuple({kNull, 5}, {1});
  EXPECT_EQ(Eliminate({a, b}).size(), 2u);
}

TEST(SubsumptionTest, OutputSortedDeterministically) {
  auto result = Eliminate(
      {CodeTuple({26}, {3}), CodeTuple({25}, {1}), CodeTuple({24}, {2})});
  ASSERT_EQ(result.size(), 3u);
  EXPECT_LT(result[0].tids, result[1].tids);
  EXPECT_LT(result[1].tids, result[2].tids);
}

TEST(SubsumptionTest, AllNullTuples) {
  // An all-null tuple is (vacuously) subsumed by any other tuple — but a
  // result set of only all-null duplicates must keep one, not vanish.
  auto null2 = [](std::vector<uint32_t> tids) {
    return CodeTuple({kNull, kNull}, std::move(tids));
  };
  auto only_nulls = Eliminate({null2({0}), null2({1})});
  ASSERT_EQ(only_nulls.size(), 1u);
  EXPECT_EQ(only_nulls[0].codes, (std::vector<uint32_t>{kNull, kNull}));
  auto mixed = Eliminate({null2({0}), CodeTuple({5, kNull}, {1})});
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed[0].codes, (std::vector<uint32_t>{5, kNull}));
}

TEST(SubsumptionTest, NonNullCount) {
  EXPECT_EQ(NonNullCount(MakeTuple({S("a"), Value::Null(), S("c")}, {})), 2u);
  EXPECT_EQ(NonNullCount(MakeTuple({}, {})), 0u);
}

TEST(SubsumptionTest, ChainOfSubsumption) {
  auto result = Eliminate({CodeTuple({1, kNull, kNull}, {0}),
                           CodeTuple({1, 2, kNull}, {0, 1}),
                           CodeTuple({1, 2, 3}, {0, 1, 2})});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].codes, (std::vector<uint32_t>{1, 2, 3}));
}

// ---------------------------------------------------------------- FD on Fig. 1

TEST(FullDisjunctionTest, Fig1EquiJoinProducesNineTuples) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  FullDisjunction fd;
  auto result = fd.Run(&problem.value());
  ASSERT_TRUE(result.ok());
  // Paper Fig. 1, FD(T1,T2,T3): f1..f9.
  EXPECT_EQ(result->tuples.size(), 9u);

  // f6 = {t5(Boston row of T2 = TID 5), t10? } — Boston rows: T2 row 1 is
  // TID 5, T3 row 2 is TID 10; they must be merged.
  bool found_boston = false;
  for (const auto& t : result->tuples) {
    if (t.tids == std::vector<uint32_t>{5, 10}) {
      found_boston = true;
      EXPECT_EQ(t.values[0], S("Boston"));
      EXPECT_EQ(t.values[1], S("US"));
      EXPECT_EQ(t.values[2], S("62%"));
      EXPECT_EQ(t.values[3], S("263K"));
    }
  }
  EXPECT_TRUE(found_boston);

  // Berlin rows of T2 (TID 6) and T3 (TID 8) merge; Berlinn (TID 0) stays
  // alone; Barcelona/ES (TID 7) and Barcelona/Spain (TID 2) stay apart.
  std::set<std::vector<uint32_t>> tid_sets;
  for (const auto& t : result->tuples) tid_sets.insert(t.tids);
  EXPECT_TRUE(tid_sets.count({6, 8}));
  EXPECT_TRUE(tid_sets.count({0}));
  EXPECT_TRUE(tid_sets.count({2}));
  EXPECT_TRUE(tid_sets.count({7}));
  EXPECT_TRUE(tid_sets.count({9}));  // barcelona (lowercase, T3)
}

TEST(FullDisjunctionTest, TwoTableCaseEqualsFullOuterJoin) {
  auto left = Table::FromRows("L", {"k", "a"},
                              {{S("1"), S("x")}, {S("2"), S("y")}});
  auto right = Table::FromRows("R", {"k", "b"},
                               {{S("1"), S("p")}, {S("3"), S("q")}});
  ASSERT_TRUE(left.ok() && right.ok());
  std::vector<Table> tables{*left, *right};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  auto result = FullDisjunction().Run(&problem.value());
  ASSERT_TRUE(result.ok());
  // FULL OUTER JOIN: merged(1), left-only(2), right-only(3).
  ASSERT_EQ(result->tuples.size(), 3u);
}

TEST(FullDisjunctionTest, CrossProductWhenMultipleJoinPartners) {
  // One left tuple joins two right tuples that conflict with each other:
  // FD keeps both combinations (like a join).
  auto left = Table::FromRows("L", {"k", "a"}, {{S("1"), S("x")}});
  auto right = Table::FromRows("R", {"k", "b"},
                               {{S("1"), S("p")}, {S("1"), S("q")}});
  ASSERT_TRUE(left.ok() && right.ok());
  std::vector<Table> tables{*left, *right};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  auto result = FullDisjunction().Run(&problem.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);
  for (const auto& t : result->tuples) {
    EXPECT_EQ(NonNullCount(t), 3u);  // k, a, b all filled
  }
}

TEST(FullDisjunctionTest, EmptyInputYieldsEmptyResult) {
  FdProblem problem =
      EncodedProblemByName({Table("T", Schema::FromNames({"a", "b"}))});
  auto result = FullDisjunction().Run(&problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tuples.empty());
  EXPECT_EQ(result->stats.num_components, 0u);
}

TEST(FullDisjunctionTest, SingleTableIsIdentityModuloSubsumption) {
  auto t = Table::FromRows("T", {"a", "b"},
                           {{S("1"), S("x")}, {S("2"), Value::Null()}});
  ASSERT_TRUE(t.ok());
  std::vector<Table> tables{*t};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  auto result = FullDisjunction().Run(&problem.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);
}

TEST(FullDisjunctionTest, DuplicateTuplesCollapse) {
  auto t = Table::FromRows("T", {"a"}, {{S("dup")}, {S("dup")}});
  ASSERT_TRUE(t.ok());
  std::vector<Table> tables{*t};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  auto result = FullDisjunction().Run(&problem.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(FullDisjunctionTest, BudgetExhaustionSurfacesError) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  FdOptions opts;
  opts.max_search_nodes = 1;  // absurdly small
  for (ThreadPool* pool : ExecutorPools()) {
    auto problem = EncodedProblem(tables, *aligned);
    ASSERT_TRUE(problem.ok());
    auto result = FullDisjunction(opts).Run(&problem.value(), pool);
    ASSERT_FALSE(result.ok()) << Workers(pool);
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(FullDisjunctionTest, Fig1IdenticalAtEveryPoolSize) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto p0 = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(p0.ok());
  auto reference = FullDisjunction().Run(&p0.value());
  ASSERT_TRUE(reference.ok());
  for (ThreadPool* pool : ExecutorPools()) {
    auto problem = EncodedProblem(tables, *aligned);
    ASSERT_TRUE(problem.ok());
    auto result = FullDisjunction().Run(&problem.value(), pool);
    ASSERT_TRUE(result.ok()) << Workers(pool);
    ASSERT_EQ(result->tuples.size(), reference->tuples.size());
    for (size_t i = 0; i < reference->tuples.size(); ++i) {
      EXPECT_EQ(result->tuples[i].values, reference->tuples[i].values);
      EXPECT_EQ(result->tuples[i].tids, reference->tuples[i].tids);
    }
  }
}

TEST(FullDisjunctionTest, ResultsToTableWithProvenance) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  auto result = FullDisjunction().Run(&problem.value());
  ASSERT_TRUE(result.ok());
  Table table =
      FdResultsToTable(result->tuples, problem->column_names(),
                       "full_disjunction", /*include_provenance=*/true);
  EXPECT_EQ(table.schema().field(0).name, "TIDs");
  EXPECT_EQ(table.NumRows(), 9u);
  bool saw_pair = false;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (table.At(r, 0) == S("{t6,t8}")) saw_pair = true;
  }
  EXPECT_TRUE(saw_pair);
}

// ---------------------------------------------------- property: vs oracle

struct OracleCase {
  size_t num_tables;
  size_t rows_per_table;
  size_t num_columns;
  size_t value_domain;  ///< small domain → dense join graph, conflicts
  uint64_t seed;
};

class FdOracleProperty : public ::testing::TestWithParam<OracleCase> {};

std::vector<Table> RandomTables(const OracleCase& oc, Rng* rng) {
  return UniformTables(oc.num_tables, oc.rows_per_table, oc.num_columns,
                       oc.value_domain, /*null_rate=*/0.35, rng);
}

TEST_P(FdOracleProperty, ProductionMatchesOracle) {
  // One executor, every parallelism level: inline, then pools of 1, 2 and 8
  // workers. On the multi-worker pools the split rule cuts some components
  // into root-branch ranges, so the oracle covers ranges as well as whole
  // components.
  const OracleCase& oc = GetParam();
  Rng rng(oc.seed);
  std::vector<uint64_t> ranges(ExecutorPools().size(), 0);
  for (int trial = 0; trial < 15; ++trial) {
    const std::vector<Table> tables = RandomTables(oc, &rng);
    auto aligned = AlignByName(TestEncoded(tables));
    ASSERT_TRUE(aligned.ok());
    auto oracle = NaiveFdOracle(tables, *aligned);
    ASSERT_TRUE(oracle.ok());
    const FdProblem problem = EncodedProblemByName(tables);
    for (size_t p = 0; p < ExecutorPools().size(); ++p) {
      ThreadPool* pool = ExecutorPools()[p];
      FdProblem copy = problem;
      auto fast = FullDisjunction().Run(&copy, pool);
      ASSERT_TRUE(fast.ok());
      ranges[p] += fast->stats.intra_tasks;
      ASSERT_EQ(fast->tuples.size(), oracle->size())
          << "trial " << trial << " workers " << Workers(pool);
      for (size_t i = 0; i < fast->tuples.size(); ++i) {
        EXPECT_EQ(fast->tuples[i].values, (*oracle)[i].values)
            << "trial " << trial << " tuple " << i << " workers "
            << Workers(pool);
        EXPECT_EQ(fast->tuples[i].tids, (*oracle)[i].tids);
      }
    }
  }
  for (size_t p = 0; p < ExecutorPools().size(); ++p) {
    if (Workers(ExecutorPools()[p]) > 1) {
      EXPECT_GT(ranges[p], 0u) << "workers " << Workers(ExecutorPools()[p]);
    } else {
      EXPECT_EQ(ranges[p], 0u) << "workers " << Workers(ExecutorPools()[p]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomShapes, FdOracleProperty,
    ::testing::Values(OracleCase{2, 3, 2, 2, 11}, OracleCase{2, 4, 3, 2, 22},
                      OracleCase{3, 3, 3, 2, 33}, OracleCase{3, 3, 4, 3, 44},
                      OracleCase{4, 3, 3, 3, 55}, OracleCase{2, 6, 3, 2, 66},
                      OracleCase{3, 4, 2, 2, 77}, OracleCase{4, 2, 5, 3, 88}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      const auto& p = info.param;
      return "t" + std::to_string(p.num_tables) + "r" +
             std::to_string(p.rows_per_table) + "c" +
             std::to_string(p.num_columns) + "d" +
             std::to_string(p.value_domain);
    });

// ------------------------------------------- property: order invariance

TEST(FullDisjunctionTest, TableOrderInvariantUpToProvenance) {
  // FD is associative/commutative: permuting the input tables must yield
  // the same set of value tuples (TIDs renumber, values must not change).
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto problem = EncodedProblem(tables, *aligned);
  ASSERT_TRUE(problem.ok());
  auto base = FullDisjunction().Run(&problem.value());
  ASSERT_TRUE(base.ok());

  std::vector<size_t> perm{2, 0, 1};
  std::vector<Table> shuffled;
  for (size_t i : perm) shuffled.push_back(tables[i]);
  auto aligned2 = AlignByName(TestEncoded(shuffled));
  ASSERT_TRUE(aligned2.ok());
  auto problem2 = EncodedProblem(shuffled, *aligned2);
  ASSERT_TRUE(problem2.ok());
  auto permuted = FullDisjunction().Run(&problem2.value());
  ASSERT_TRUE(permuted.ok());

  ASSERT_EQ(base->tuples.size(), permuted->tuples.size());
  // Compare as multisets of value maps keyed by universal NAME (column
  // order may differ between the two alignments).
  auto canonicalize = [](const FdResult& r,
                         const std::vector<std::string>& names) {
    std::multiset<std::set<std::pair<std::string, std::string>>> out;
    for (const auto& t : r.tuples) {
      std::set<std::pair<std::string, std::string>> entry;
      for (size_t c = 0; c < t.values.size(); ++c) {
        if (!t.values[c].is_null()) {
          entry.emplace(names[c], t.values[c].ToString());
        }
      }
      out.insert(std::move(entry));
    }
    return out;
  };
  EXPECT_EQ(canonicalize(*base, aligned->universal_names),
            canonicalize(*permuted, aligned2->universal_names));
}

TEST(FullDisjunctionTest, RandomizedOrderInvariance) {
  // Rotating the table order, or shuffling the rows inside each table,
  // renumbers TIDs but must leave the multiset of result value rows as it
  // is. The tables share one header list, so the universal columns keep
  // their order.
  auto sorted_value_rows = [](const std::vector<Table>& tables) {
    FdProblem problem = EncodedProblemByName(tables);
    auto result = FullDisjunction().Run(&problem);
    EXPECT_TRUE(result.ok());
    std::vector<std::vector<Value>> rows;
    for (const auto& t : result->tuples) rows.push_back(t.values);
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  Rng rng(505);
  Rng shuffle_rng(606);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<Table> tables =
        RandomTables(OracleCase{3, 3, 3, 2, 0}, &rng);
    const auto base = sorted_value_rows(tables);
    std::vector<Table> rotated(tables.begin() + 1, tables.end());
    rotated.push_back(tables[0]);
    EXPECT_EQ(sorted_value_rows(rotated), base) << "trial " << trial;
    std::vector<Table> shuffled;
    for (const Table& t : tables) {
      std::vector<size_t> order(t.NumRows());
      std::iota(order.begin(), order.end(), size_t{0});
      shuffle_rng.Shuffle(&order);
      shuffled.push_back(t.SelectRows(order));
    }
    EXPECT_EQ(sorted_value_rows(shuffled), base) << "trial " << trial;
  }
}

// ---------------------------------------------------------------- Oracle

TEST(OracleTest, RefusesLargeInputs) {
  Table t("T", Schema::FromNames({"a"}));
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(t.AppendRow({S("v")}).ok());
  }
  std::vector<Table> tables{t};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  EXPECT_FALSE(NaiveFdOracle(tables, *aligned).ok());
}

TEST(OracleTest, HandlesFig1) {
  auto tables = Fig1Tables();
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());
  auto oracle = NaiveFdOracle(tables, *aligned);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->size(), 9u);
}

}  // namespace
}  // namespace lakefuzz
