// AlignedSchema: how the columns of an integration set map into one
// universal (integrated) schema.
//
// Produced either by holistic schema matching (src/match/) or, for tables
// with trustworthy headers, by name equality (AlignByName). Consumed by the
// Full Disjunction operator and the fuzzy value matcher. At most one column
// per table may map to a given universal column — columns within a table
// never align with each other (paper Sec 2.1).
#ifndef LAKEFUZZ_FD_ALIGNED_SCHEMA_H_
#define LAKEFUZZ_FD_ALIGNED_SCHEMA_H_

#include <string>
#include <vector>

#include "fd/session_dict.h"
#include "util/result.h"

namespace lakefuzz {

/// Column alignment across an integration set.
struct AlignedSchema {
  /// Names of the universal columns (size U).
  std::vector<std::string> universal_names;
  /// column_map[l][c] = universal index of table l's column c.
  std::vector<std::vector<size_t>> column_map;

  size_t NumUniversal() const { return universal_names.size(); }

  /// For universal column u, the (table, column) pairs mapped to it, in
  /// table order.
  std::vector<std::pair<size_t, size_t>> SourcesOf(size_t u) const;
};

/// Aligns columns by exact header-name equality; every distinct name becomes
/// one universal column (first-appearance order). Fails if a table repeats a
/// column name (the mapping would be ambiguous).
Result<AlignedSchema> AlignByName(const EncodedTables& tables);

/// Checks `aligned` against `tables`: map sizes match table widths, universal
/// indices in range, and no two columns of one table share a universal
/// column.
Status ValidateAlignedSchema(const AlignedSchema& aligned,
                             const EncodedTables& tables);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_ALIGNED_SCHEMA_H_
