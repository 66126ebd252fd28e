// FD instances shared by the tests: random tables, the pipeline's code
// build over tables encoded into a test-wide session dictionary, and the
// padded rows of the outer union that the invariant and index checks read.
#ifndef LAKEFUZZ_TESTS_FD_PROBLEMS_H_
#define LAKEFUZZ_TESTS_FD_PROBLEMS_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fd/aligned_schema.h"
#include "fd/problem.h"
#include "fd/session_dict.h"
#include "util/rng.h"

namespace lakefuzz {

/// `num_tables` tables of `rows_per_table` rows over the same columns
/// c0..c{num_columns-1}. A cell is null with probability `null_rate`, else
/// one of the first `value_domain` one-letter strings. Cells are drawn
/// table by table, then row by row, then column by column.
inline std::vector<Table> UniformTables(size_t num_tables,
                                        size_t rows_per_table,
                                        size_t num_columns,
                                        size_t value_domain, double null_rate,
                                        Rng* rng) {
  std::vector<std::string> names;
  for (size_t c = 0; c < num_columns; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  std::vector<Table> tables;
  for (size_t l = 0; l < num_tables; ++l) {
    Table t("t" + std::to_string(l), Schema::FromNames(names));
    for (size_t r = 0; r < rows_per_table; ++r) {
      std::vector<Value> row(num_columns);
      for (size_t c = 0; c < num_columns; ++c) {
        if (rng->Bernoulli(null_rate)) continue;
        row[c] = Value::String(std::string(
            1, static_cast<char>('a' + rng->Uniform(value_domain))));
      }
      EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

/// The dictionary the tests encode into. It only grows, so codes (and the
/// problems decoding through it) stay valid for the whole test binary.
inline SessionDict* TestSessionDict() {
  static SessionDict dict;
  return &dict;
}

/// `tables` encoded into the test-wide dictionary: the pipeline's input.
inline EncodedTables TestEncoded(const std::vector<Table>& tables) {
  return EncodeTables(tables, TestSessionDict());
}

/// The FD problem of `tables` under `aligned`, built the way the pipeline
/// builds it: encode, then gather the code columns.
inline Result<FdProblem> EncodedProblem(const std::vector<Table>& tables,
                                        const AlignedSchema& aligned) {
  return FdProblem::BuildInterned(TestEncoded(tables), aligned,
                                  TestSessionDict()->dict());
}

/// EncodedProblem of `tables` aligned by header name (AlignByName).
inline FdProblem EncodedProblemByName(const std::vector<Table>& tables) {
  const EncodedTables encoded = TestEncoded(tables);
  auto aligned = AlignByName(encoded);
  EXPECT_TRUE(aligned.ok());
  auto problem = FdProblem::BuildInterned(encoded, *aligned,
                                          TestSessionDict()->dict());
  EXPECT_TRUE(problem.ok());
  return std::move(problem).value();
}

/// One row of the outer union: its source table and its values padded to
/// the universal schema with nulls.
struct PaddedRow {
  uint32_t table_id = 0;
  std::vector<Value> values;
};

/// The outer union of `tables` under `aligned`, read straight from the
/// tables in TID order (table order, then row order).
inline std::vector<PaddedRow> PaddedRows(const std::vector<Table>& tables,
                                         const AlignedSchema& aligned) {
  std::vector<PaddedRow> rows;
  for (size_t l = 0; l < tables.size(); ++l) {
    for (size_t r = 0; r < tables[l].NumRows(); ++r) {
      PaddedRow row{static_cast<uint32_t>(l),
                    std::vector<Value>(aligned.NumUniversal())};
      for (size_t c = 0; c < tables[l].NumColumns(); ++c) {
        row.values[aligned.column_map[l][c]] = tables[l].At(r, c);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_TESTS_FD_PROBLEMS_H_
