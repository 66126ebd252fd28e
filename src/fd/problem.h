// FdProblem: the outer-union representation Full Disjunction operates on.
//
// Every input tuple is padded to the universal schema with nulls and tagged
// with its source table and a global tuple id (TID), as a flat uint32 code
// row: BuildInterned gathers the rows from encoded tables' session codes
// (tuple-level AddTuple instances are interned into a per-problem ValueDict
// by BuildIndex instead). BuildIndex then builds posting lists over
// (column, code) pairs. The posting lists *are* the join graph, stored
// implicitly in CSR form: tuples sharing an equal non-null value on a
// universal column are joinable neighbors, and a posting list of k tuples
// represents its k·(k−1) adjacency edges in O(k) space — no materialized
// all-pairs edge lists. Connected components of the graph partition the FD
// computation.
#ifndef LAKEFUZZ_FD_PROBLEM_H_
#define LAKEFUZZ_FD_PROBLEM_H_

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fd/aligned_schema.h"
#include "fd/session_dict.h"
#include "fd/value_dict.h"
#include "table/table.h"
#include "util/result.h"

namespace lakefuzz {

class ThreadPool;

/// One null-padded input tuple.
struct FdInputTuple {
  uint32_t table_id = 0;
  /// Values over the universal schema (size = FdProblem::num_columns()).
  std::vector<Value> values;
};

/// Size counters of the CSR join-graph index (reported by FdStats).
struct FdIndexStats {
  size_t distinct_values = 0;   ///< non-null dictionary entries
  size_t posting_lists = 0;     ///< multi-tuple (joinable) posting lists
  size_t posting_entries = 0;   ///< Σ posting-list lengths (CSR size)
};

/// A code→code substitution for one column (the fuzzy rewrite); codes
/// absent from the map are kept.
using CodeRemap = std::unordered_map<uint32_t, uint32_t>;
/// remaps[l][c] applies to column c of table l. Empty outer vector = no
/// substitution anywhere.
using CodeRemaps = std::vector<std::vector<CodeRemap>>;

/// A materialized Full Disjunction instance.
class FdProblem {
 public:
  /// Code of a null cell in interned rows (== ValueDict::kNullCode).
  static constexpr uint32_t kNullCode = ValueDict::kNullCode;

  FdProblem(size_t num_columns, std::vector<std::string> column_names)
      : num_columns_(num_columns), column_names_(std::move(column_names)) {}

  /// The outer union of `tables` under `aligned` (validated first),
  /// gathered from the records' code columns into flat uint32 rows: no
  /// padded Value rows, no Value copies, and nothing is interned. When
  /// `remaps` is non-empty, remaps[l][c] substitutes codes of column c of
  /// table l as they are gathered (the fuzzy rewrite stage's output).
  /// `dict` is the dictionary the records were encoded into (not owned;
  /// must outlive the problem): all downstream work runs on code rows and
  /// decodes through it. Problems built this way have no materialized
  /// tuples().
  static Result<FdProblem> BuildInterned(const EncodedTables& tables,
                                         const AlignedSchema& aligned,
                                         const ValueDict& dict,
                                         const CodeRemaps& remaps = {});

  size_t num_columns() const { return num_columns_; }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  /// Padded input tuples (AddTuple problems only; empty for BuildInterned
  /// problems, which never materialize per-tuple Values).
  const std::vector<FdInputTuple>& tuples() const { return tuples_; }
  size_t num_tuples() const { return table_ids_.size(); }

  /// One more than the largest table_id added (0 for an empty problem).
  uint32_t num_tables() const { return num_tables_; }
  uint32_t table_id(uint32_t tid) const { return table_ids_[tid]; }

  /// Appends a tuple (tuple-level instances: the FD unit tests and the
  /// oracle's reference problems). `values` must have num_columns()
  /// entries.
  Status AddTuple(uint32_t table_id, std::vector<Value> values);

  /// Builds the value dictionary, interned code rows, CSR posting lists,
  /// and components. Idempotent. When `pool` is non-null the cell-hashing,
  /// posting-shard, and union-find phases run on it; results are identical
  /// to the serial build. BuildInterned problems skip the hash + intern
  /// phases entirely (their code rows already exist).
  void BuildIndex(ThreadPool* pool = nullptr);
  bool index_built() const { return index_built_; }

  /// The interning dictionary: the problem-owned one (AddTuple problems),
  /// or the session dictionary a BuildInterned problem was encoded against.
  /// Requires BuildIndex() on AddTuple problems.
  const ValueDict& dict() const {
    return external_dict_ != nullptr ? *external_dict_ : dict_;
  }

  /// Interned row of `tid`: num_columns() codes, kNullCode where null.
  /// Requires BuildIndex().
  const uint32_t* CodeRow(uint32_t tid) const {
    return codes_.data() + static_cast<size_t>(tid) * num_columns_;
  }

  /// TIDs adjacent to `tid` in the join graph: tuples sharing at least one
  /// equal non-null (column, value). Materialized on demand from the CSR
  /// index — sorted, deduplicated, excludes `tid` itself. Requires
  /// BuildIndex().
  std::vector<uint32_t> Neighbors(uint32_t tid) const;

  /// Streams the co-posted tuples of `tid` (every tuple sharing a posting
  /// list with it, excluding `tid`). A tuple sharing several values with
  /// `tid` is visited once per shared posting list — callers dedup, which
  /// the FD enumerator does with epoch stamps anyway. This is the zero-
  /// allocation hot-path form of Neighbors(). Requires BuildIndex().
  template <typename F>
  void ForEachCoPosted(uint32_t tid, F&& fn) const {
    assert(index_built_);
    for (uint64_t k = tuple_offsets_[tid]; k < tuple_offsets_[tid + 1]; ++k) {
      const uint32_t p = tuple_postings_[k];
      for (uint64_t e = posting_offsets_[p]; e < posting_offsets_[p + 1];
           ++e) {
        const uint32_t other = posting_tids_[e];
        if (other != tid) fn(other);
      }
    }
  }

  /// Connected components of the join graph, each a sorted TID list, ordered
  /// by smallest member. Singleton tuples (no joinable partner) form
  /// singleton components. Requires BuildIndex().
  const std::vector<std::vector<uint32_t>>& Components() const;

  /// Index size counters. Requires BuildIndex().
  const FdIndexStats& index_stats() const { return index_stats_; }

 private:
  size_t num_columns_;
  std::vector<std::string> column_names_;
  std::vector<FdInputTuple> tuples_;  ///< AddTuple problems only
  std::vector<uint32_t> table_ids_;   ///< table id per TID (both paths)
  uint32_t num_tables_ = 0;

  bool index_built_ = false;
  /// True once codes_ holds the interned rows (set by BuildInterned, or by
  /// BuildIndex phases 1–2 on AddTuple problems).
  bool codes_ready_ = false;
  ValueDict dict_;
  /// Session dictionary the rows were encoded against (BuildInterned); not
  /// owned, must outlive the problem. Null on AddTuple problems.
  const ValueDict* external_dict_ = nullptr;
  std::vector<uint32_t> codes_;  ///< num_tuples × num_columns interned cells

  // CSR join graph. Posting lists keep only multi-tuple lists (singletons
  // induce no edges). posting_offsets_ has one extra trailing entry; the
  // TIDs of posting p are posting_tids_[posting_offsets_[p] ..
  // posting_offsets_[p+1]). tuple_offsets_/tuple_postings_ map each TID to
  // the posting lists containing it.
  std::vector<uint64_t> posting_offsets_;
  std::vector<uint32_t> posting_tids_;
  std::vector<uint64_t> tuple_offsets_;
  std::vector<uint32_t> tuple_postings_;

  std::vector<std::vector<uint32_t>> components_;
  FdIndexStats index_stats_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_PROBLEM_H_
