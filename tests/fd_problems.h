// FD-problem builders shared by the tests: the pipeline's code build over
// tables encoded into a test-wide session dictionary, and the tuple-level
// padded form that NaiveFdOracle and the invariant checks read.
#ifndef LAKEFUZZ_TESTS_FD_PROBLEMS_H_
#define LAKEFUZZ_TESTS_FD_PROBLEMS_H_

#include <gtest/gtest.h>

#include <vector>

#include "fd/aligned_schema.h"
#include "fd/problem.h"
#include "fd/session_dict.h"

namespace lakefuzz {

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

/// The tuple-level outer union of `tables` under `aligned`: every row
/// padded to the universal schema with nulls and added with AddTuple, in
/// TID order (table order, then row order).
inline FdProblem PaddedProblem(const std::vector<Table>& tables,
                               const AlignedSchema& aligned) {
  FdProblem problem(aligned.NumUniversal(), aligned.universal_names);
  for (size_t l = 0; l < tables.size(); ++l) {
    for (size_t r = 0; r < tables[l].NumRows(); ++r) {
      std::vector<Value> padded(aligned.NumUniversal());
      for (size_t c = 0; c < tables[l].NumColumns(); ++c) {
        padded[aligned.column_map[l][c]] = tables[l].At(r, c);
      }
      EXPECT_TRUE(
          problem.AddTuple(static_cast<uint32_t>(l), std::move(padded)).ok());
    }
  }
  return problem;
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_TESTS_FD_PROBLEMS_H_
