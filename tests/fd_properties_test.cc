// Property tests of the Full Disjunction guarantees the paper builds on:
//
//   (1) information preservation — every input tuple's TID appears in at
//       least one result tuple ("each tuple is represented and no tuples
//       remain incomplete", paper Sec 1);
//   (2) the output is subsumption-free;
//   (3) every result's provenance is a connected, join-consistent set with
//       at most one tuple per table, and its values are exactly their join;
//   (4) a column that only one table has leaves the FD's other columns
//       unchanged: it adds no join edge, since an FD set holds at most one
//       tuple of that table.
//
// Checked on randomized instances across a grid of shapes, for the one
// executor inline and on pools of 1, 2 and 8 workers, and through the fuzzy
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/fuzzy_fd.h"
#include "embedding/model_zoo.h"
#include "fd/full_disjunction.h"
#include "fd_problems.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

struct Shape {
  size_t num_tables;
  size_t rows_per_table;
  size_t num_columns;
  size_t value_domain;
  uint64_t seed;
};

std::vector<Table> RandomTables(const Shape& shape, Rng* rng) {
  std::vector<Table> tables =
      UniformTables(shape.num_tables, shape.rows_per_table, shape.num_columns,
                    shape.value_domain, /*null_rate=*/0.3, rng);
  for (Table& t : tables) {
    for (size_t r = 0; r < t.NumRows(); ++r) {
      bool any = false;
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        any = any || !t.At(r, c).is_null();
      }
      if (!any) t.Set(r, 0, Value::String("x"));  // avoid all-null tuples
    }
  }
  return tables;
}

/// Checks `result` against the padded input rows it was computed from.
void CheckInvariants(const std::vector<PaddedRow>& rows,
                     const FdResult& result) {
  const size_t num_columns = rows.empty() ? 0 : rows[0].values.size();
  // (1) Information preservation.
  std::vector<char> covered(rows.size(), 0);
  for (const auto& t : result.tuples) {
    for (uint32_t tid : t.tids) {
      ASSERT_LT(tid, rows.size());
      covered[tid] = 1;
    }
  }
  for (size_t tid = 0; tid < rows.size(); ++tid) {
    // A tuple may be represented through a duplicate with identical values;
    // verify its values are carried by some result instead of its TID.
    if (covered[tid]) continue;
    FdResultTuple as_result;
    as_result.values = rows[tid].values;
    bool carried = false;
    for (const auto& t : result.tuples) {
      if (Subsumes(t, as_result)) {
        carried = true;
        break;
      }
    }
    EXPECT_TRUE(carried) << "input tuple " << tid << " lost";
  }

  // (2) Subsumption-free output.
  for (size_t i = 0; i < result.tuples.size(); ++i) {
    for (size_t j = 0; j < result.tuples.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Subsumes(result.tuples[i], result.tuples[j]) &&
                   Subsumes(result.tuples[j], result.tuples[i]))
          << "duplicate results " << i << " and " << j;
      if (NonNullCount(result.tuples[i]) > NonNullCount(result.tuples[j])) {
        EXPECT_FALSE(Subsumes(result.tuples[i], result.tuples[j]))
            << "result " << j << " subsumed by " << i;
      }
    }
  }

  // (3) Provenance validity: one tuple per table, join-consistent, values
  // are exactly the join, and the set is connected.
  for (const auto& t : result.tuples) {
    std::set<uint32_t> tables;
    std::vector<Value> merged(num_columns);
    for (uint32_t tid : t.tids) {
      const auto& input = rows[tid];
      EXPECT_TRUE(tables.insert(input.table_id).second)
          << "two tuples from table " << input.table_id;
      for (size_t c = 0; c < num_columns; ++c) {
        if (input.values[c].is_null()) continue;
        if (merged[c].is_null()) {
          merged[c] = input.values[c];
        } else {
          EXPECT_EQ(merged[c], input.values[c]) << "join-inconsistent set";
        }
      }
    }
    EXPECT_EQ(merged, t.values) << "values are not the join of the TIDs";

    // Connectivity via shared equal non-null values.
    if (t.tids.size() > 1) {
      std::vector<char> reached(t.tids.size(), 0);
      reached[0] = 1;
      size_t count = 1;
      bool grew = true;
      while (grew) {
        grew = false;
        for (size_t i = 0; i < t.tids.size(); ++i) {
          if (reached[i]) continue;
          for (size_t j = 0; j < t.tids.size(); ++j) {
            if (!reached[j]) continue;
            const auto& a = rows[t.tids[i]].values;
            const auto& b = rows[t.tids[j]].values;
            bool share = false;
            for (size_t c = 0; c < num_columns; ++c) {
              if (!a[c].is_null() && !b[c].is_null() && a[c] == b[c]) {
                share = true;
                break;
              }
            }
            if (share) {
              reached[i] = 1;
              ++count;
              grew = true;
              break;
            }
          }
        }
      }
      EXPECT_EQ(count, t.tids.size()) << "provenance set not connected";
    }
  }
}

class FdInvariantProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(FdInvariantProperty, ExecutorUpholdsInvariantsAtEveryPoolSize) {
  static ThreadPool one(1), two(2), eight(8);
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<Table> tables = RandomTables(GetParam(), &rng);
    auto aligned = AlignByName(TestEncoded(tables));
    ASSERT_TRUE(aligned.ok());
    const std::vector<PaddedRow> rows = PaddedRows(tables, *aligned);
    const FdProblem problem = EncodedProblemByName(tables);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                             &eight}) {
      FdProblem copy = problem;
      auto result = FullDisjunction().Run(&copy, pool);
      ASSERT_TRUE(result.ok());
      CheckInvariants(rows, *result);
    }
  }
}

/// `rows` without duplicates and without rows another row subsumes,
/// sorted.
std::vector<std::vector<Value>> MaximalRows(
    std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<FdResultTuple> tuples;
  for (auto& row : rows) tuples.push_back(FdResultTuple{std::move(row), {}});
  std::vector<std::vector<Value>> out;
  for (size_t i = 0; i < tuples.size(); ++i) {
    bool subsumed = false;
    for (size_t j = 0; j < tuples.size() && !subsumed; ++j) {
      subsumed = j != i && Subsumes(tuples[j], tuples[i]);
    }
    if (!subsumed) out.push_back(tuples[i].values);
  }
  return out;
}

TEST_P(FdInvariantProperty, PrivateColumnLeavesOtherColumnsUnchanged) {
  // Table 0 gains a column no other table has, drawn from a 2-letter
  // domain so that many of its rows repeat a value. Projected on the
  // original columns, the new FD must give the original FD's rows once
  // duplicates and subsumed rows are dropped: a private value can keep
  // apart two rows the original FD collapsed, but never adds a join.
  static ThreadPool one(1), two(2), eight(8);
  Rng rng(GetParam().seed ^ 0x5EED);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<Table> tables = RandomTables(GetParam(), &rng);
    std::vector<Table> widened = tables;
    std::vector<std::string> names;
    for (const auto& f : tables[0].schema().fields()) names.push_back(f.name);
    names.push_back("private");
    Table t0(tables[0].name(), Schema::FromNames(names));
    for (size_t r = 0; r < tables[0].NumRows(); ++r) {
      std::vector<Value> row = tables[0].Row(r);
      row.push_back(Value::String(rng.Bernoulli(0.5) ? "p" : "q"));
      ASSERT_TRUE(t0.AppendRow(std::move(row)).ok());
    }
    widened[0] = std::move(t0);

    FdProblem original = EncodedProblemByName(tables);
    auto expected = FullDisjunction().Run(&original);
    ASSERT_TRUE(expected.ok());
    std::vector<std::vector<Value>> expected_rows;
    for (const auto& t : expected->tuples) expected_rows.push_back(t.values);
    std::sort(expected_rows.begin(), expected_rows.end());

    const FdProblem problem = EncodedProblemByName(widened);
    const std::vector<std::string>& universal = problem.column_names();
    const size_t dropped = static_cast<size_t>(
        std::find(universal.begin(), universal.end(), "private") -
        universal.begin());
    ASSERT_LT(dropped, universal.size());
    std::vector<std::string> kept = universal;
    kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(dropped));
    ASSERT_EQ(kept, original.column_names());
    for (ThreadPool* pool : {&one, &two, &eight}) {
      FdProblem copy = problem;
      auto result = FullDisjunction().Run(&copy, pool);
      ASSERT_TRUE(result.ok());
      std::vector<std::vector<Value>> projected;
      for (const auto& t : result->tuples) {
        std::vector<Value> row = t.values;
        row.erase(row.begin() + static_cast<std::ptrdiff_t>(dropped));
        projected.push_back(std::move(row));
      }
      EXPECT_EQ(MaximalRows(std::move(projected)), expected_rows)
          << "trial " << trial << " workers " << pool->num_threads();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FdInvariantProperty,
    ::testing::Values(Shape{2, 4, 3, 2, 1}, Shape{3, 5, 3, 3, 2},
                      Shape{4, 6, 4, 3, 3}, Shape{3, 8, 5, 4, 4},
                      Shape{5, 4, 4, 2, 5}, Shape{2, 10, 3, 5, 6}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      const auto& p = info.param;
      return "t" + std::to_string(p.num_tables) + "r" +
             std::to_string(p.rows_per_table) + "c" +
             std::to_string(p.num_columns) + "d" +
             std::to_string(p.value_domain);
    });

TEST(FuzzyFdInvariantTest, PipelineOutputUpholdsFdInvariants) {
  // The fuzzy pipeline's output is an FD over the *rewritten* tables; its
  // invariants must hold with respect to those tables.
  auto t1 = Table::FromRows("T1", {"k", "a"},
                            {{Value::String("Berlinn"), Value::String("x")},
                             {Value::String("Toronto"), Value::String("y")}});
  auto t2 = Table::FromRows("T2", {"k", "b"},
                            {{Value::String("Berlin"), Value::String("p")},
                             {Value::String("Madrid"), Value::String("q")}});
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::vector<Table> tables{*t1, *t2};
  auto aligned = AlignByName(TestEncoded(tables));
  ASSERT_TRUE(aligned.ok());

  FuzzyFdOptions opts;
  opts.matcher.model = MakeModel(ModelKind::kMistral);
  opts.session_dict = TestSessionDict();
  FuzzyFullDisjunction fuzzy(opts);
  auto rewritten = fuzzy.RewriteTables(TestEncoded(tables), *aligned, nullptr);
  ASSERT_TRUE(rewritten.ok());
  auto result = fuzzy.RunToTuples(TestEncoded(tables), *aligned,
                                  /*fuzzy=*/true);
  ASSERT_TRUE(result.ok());

  CheckInvariants(PaddedRows(*rewritten, *aligned), *result);
}

}  // namespace
}  // namespace lakefuzz
