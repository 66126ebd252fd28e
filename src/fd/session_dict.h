// SessionDict: a ValueDict whose lifetime spans an engine session, and
// EncodedTable, the one record of a registered table.
//
// A LakeEngine owns one SessionDict, so codes are stable for the session.
// Every table is encoded into it exactly once — at registration, or rebuilt
// from persisted codes at catalog open — into an EncodedTable: the table's
// name and schema plus one code column per field. The cells themselves live
// only in the dictionary; no consumer reads a Value from the record.
// Alignment pools a column's distinct codes decoded through the dictionary,
// discovery sketches the codes (dict().HashOf supplies the content hash
// MinHash signatures are built over), the catalog persists and fingerprints
// them, and FdProblem::BuildInterned gathers them into flat code rows. The
// fuzzy rewrite stage is a code→code remap applied during that gather, so
// no request interns anything.
//
// Thread safety: the underlying ValueDict is internally sharded
// (fd/value_dict.h), so concurrent encodes — several tables registering at
// once, or one table's columns on the session pool — contend per hash
// shard instead of serializing on one dictionary mutex. Decode / HashOf
// are lock-free: ValueDict's bucketed storage keeps decoded references
// stable under growth, so a request may stream-decode its result set while
// another thread is still encoding.
#ifndef LAKEFUZZ_FD_SESSION_DICT_H_
#define LAKEFUZZ_FD_SESSION_DICT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fd/value_dict.h"
#include "table/table.h"

namespace lakefuzz {

class ThreadPool;

/// One registered table: its registry name, its schema and one
/// session-dictionary code column per field. codes[c][r] is the code of row
/// r's cell in column c (ValueDict::kNullCode for null); every column has
/// NumRows() codes, and a record without columns has no rows (registration
/// and catalog open refuse rows without columns). Built by
/// SessionDict::Encode or from a catalog's persisted codes; immutable and
/// shared by the registry, the discovery index and in-flight requests.
struct EncodedTable {
  std::string name;
  Schema schema;
  std::vector<std::vector<uint32_t>> codes;
  size_t NumColumns() const { return codes.size(); }
  size_t NumRows() const { return codes.empty() ? 0 : codes[0].size(); }
};

/// An integration set of records, in TID order (table order, then rows).
using EncodedTables = std::vector<std::shared_ptr<const EncodedTable>>;

class SessionDict {
 public:
  /// Cumulative traffic counters (observability; see LakeEngine accessors).
  struct Stats {
    uint64_t values_interned = 0;  ///< distinct values in the dictionary
  };

  /// The backing dictionary. Decode / HashOf on the returned reference are
  /// safe concurrently with encoding (see file comment).
  const ValueDict& dict() const { return dict_; }

  /// Encodes `table` into a record named `name`: its schema plus one code
  /// column per table column, interned column-parallel on `pool` (null =
  /// inline). The record keeps no reference to `table`.
  std::shared_ptr<const EncodedTable> Encode(const Table& table,
                                             std::string name,
                                             ThreadPool* pool = nullptr);

  /// Catalog-load form: interns `v` under its persisted content `hash`
  /// (must equal v.Hash(); the catalog's golden hash test locks the
  /// function so persisted hashes stay valid across builds) without
  /// re-hashing the payload. Returns the session code — equal to the file
  /// code when loading into a fresh dictionary.
  uint32_t RestoreValue(Value v, uint64_t hash);

  /// Distinct non-null values interned so far.
  size_t NumDistinct() const { return dict_.NumDistinct(); }

  Stats stats() const { return Stats{NumDistinct()}; }

 private:
  ValueDict dict_;
};

/// Encodes `tables`, in order and under their own names — the form for
/// callers that hold a plain table vector (tests, benches, examples
/// running the pipeline without an engine).
EncodedTables EncodeTables(const std::vector<Table>& tables,
                           SessionDict* dict, ThreadPool* pool = nullptr);

/// The distinct non-null codes of `column` in first-appearance order, at
/// most `limit` of them. The dictionary interns by Value equality, so these
/// are the column's distinct values (what alignment samples).
std::vector<uint32_t> DistinctCodes(const std::vector<uint32_t>& column,
                                    size_t limit = SIZE_MAX);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_SESSION_DICT_H_
