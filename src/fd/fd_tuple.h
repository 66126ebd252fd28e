// FdResultTuple: an integrated (joined) tuple with provenance.
#ifndef LAKEFUZZ_FD_FD_TUPLE_H_
#define LAKEFUZZ_FD_FD_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"

namespace lakefuzz {

/// The join of a connected, join-consistent set of input tuples: one value
/// per universal column (null where no member had a value), plus the sorted
/// TIDs of the members (the paper's "TIDs" provenance column in Fig. 1).
struct FdResultTuple {
  std::vector<Value> values;
  std::vector<uint32_t> tids;

  bool operator==(const FdResultTuple& other) const {
    return values == other.values && tids == other.tids;
  }
};

class ValueDict;

/// Interned twin of FdResultTuple: one dictionary code per universal column
/// (ValueDict::kNullCode where null) plus the sorted member TIDs. The FD
/// executors enumerate and subsume these flat integer rows and decode back
/// to Values once, when the final result set is materialized.
struct FdCodeTuple {
  std::vector<uint32_t> codes;
  std::vector<uint32_t> tids;

  bool operator==(const FdCodeTuple& other) const {
    return codes == other.codes && tids == other.tids;
  }
};

/// Decodes an interned tuple through the dictionary that produced it.
FdResultTuple DecodeCodeTuple(const FdCodeTuple& t, const ValueDict& dict);

/// True if `a`'s non-null values are a subset of `b`'s (b agrees wherever a
/// is non-null). Equal tuples subsume each other.
bool Subsumes(const FdResultTuple& b, const FdResultTuple& a);

/// Number of non-null values.
size_t NonNullCount(const FdResultTuple& t);

/// Materializes results as a table. When `include_provenance` is set, a
/// leading "TIDs" column renders each provenance set as "{t0,t3}".
Table FdResultsToTable(const std::vector<FdResultTuple>& results,
                       const std::vector<std::string>& column_names,
                       const std::string& table_name,
                       bool include_provenance = false);

/// Appends results as rows of a table made by FdResultsToTable with the same
/// `include_provenance` — the incremental form batch consumers use.
void AppendFdResults(const std::vector<FdResultTuple>& results,
                     bool include_provenance, Table* out);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_FD_TUPLE_H_
