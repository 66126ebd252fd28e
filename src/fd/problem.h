// FdProblem: the outer-union representation Full Disjunction operates on.
//
// Every input tuple is padded to the universal schema with nulls and tagged
// with its source table and a global tuple id (TID), as a flat uint32 code
// row. BuildInterned is the only way to make a problem: it gathers the rows
// from encoded tables' session codes, so TIDs always run in table order,
// then row order — each table's tuples form one contiguous TID range.
// BuildIndex then builds posting lists over (column, code) pairs. The
// posting lists *are* the join graph, stored implicitly in CSR form: two
// tuples are adjacent when they come from different tables and share an
// equal non-null value on a universal column, and a posting list of k
// tuples represents its cross-table edges in O(k) space — no materialized
// all-pairs edge lists. A list whose tuples all come from one table adds no
// edge (an FD set holds at most one tuple per table), so it is not kept.
// Connected components of the graph partition the FD computation.
#ifndef LAKEFUZZ_FD_PROBLEM_H_
#define LAKEFUZZ_FD_PROBLEM_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fd/aligned_schema.h"
#include "fd/session_dict.h"
#include "fd/value_dict.h"
#include "util/result.h"

namespace lakefuzz {

class ThreadPool;

/// Size counters of the CSR join-graph index (reported by FdStats).
struct FdIndexStats {
  size_t distinct_values = 0;   ///< distinct non-null codes in the problem
  /// Cross-table posting lists: those spanning two or more tables.
  size_t posting_lists = 0;
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

  /// The outer union of `tables` under `aligned` (validated first),
  /// gathered from the records' code columns into flat uint32 rows: no
  /// padded Value rows, no Value copies, and nothing is interned. When
  /// `remaps` is non-empty, remaps[l][c] substitutes codes of column c of
  /// table l as they are gathered (the fuzzy rewrite stage's output).
  /// `dict` is the dictionary the records were encoded into (not owned;
  /// must outlive the problem): all downstream work runs on code rows and
  /// decodes through it.
  static Result<FdProblem> BuildInterned(const EncodedTables& tables,
                                         const AlignedSchema& aligned,
                                         const ValueDict& dict,
                                         const CodeRemaps& remaps = {});

  size_t num_columns() const { return num_columns_; }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  size_t num_tuples() const { return table_ids_.size(); }

  /// Number of input tables (0 for an empty integration set).
  uint32_t num_tables() const {
    return static_cast<uint32_t>(table_begin_.size() - 1);
  }
  /// Source table of `tid`; non-decreasing in `tid` (table-ordered TIDs).
  uint32_t table_id(uint32_t tid) const { return table_ids_[tid]; }

  /// Builds the CSR posting lists and components over the gathered code
  /// rows. Idempotent. When `pool` is non-null the posting-shard and
  /// union-find phases run on it; results are identical to the inline
  /// build.
  void BuildIndex(ThreadPool* pool = nullptr);
  bool index_built() const { return index_built_; }

  /// The session dictionary the problem's codes decode through.
  const ValueDict& dict() const { return *dict_; }

  /// Code row of `tid`: num_columns() codes, kNullCode where null.
  const uint32_t* CodeRow(uint32_t tid) const {
    return codes_.data() + static_cast<size_t>(tid) * num_columns_;
  }

  /// TIDs adjacent to `tid` in the join graph: tuples of other tables
  /// sharing at least one equal non-null (column, value). Materialized on
  /// demand from the CSR index — sorted, deduplicated. Requires
  /// BuildIndex().
  std::vector<uint32_t> Neighbors(uint32_t tid) const;

  /// Streams the tuples co-posted with `tid` (sharing a posting list with
  /// it) whose table t has skip_table[t] == 0. skip_table holds one flag
  /// per table and must mask `tid`'s own table, so neither `tid` nor a
  /// tuple of its table is visited. A masked table's block inside a list is
  /// jumped over by binary search on the next table's first TID, so its
  /// tuples cost O(log k) per list instead of one visit each. A tuple
  /// sharing several values with `tid` is visited once per shared list —
  /// callers dedup, which the FD enumerator does with epoch stamps anyway.
  /// Requires BuildIndex().
  template <typename F>
  void ForEachCoPosted(uint32_t tid, const char* skip_table, F&& fn) const {
    assert(index_built_);
    assert(skip_table[table_ids_[tid]]);
    for (uint64_t k = tuple_offsets_[tid]; k < tuple_offsets_[tid + 1]; ++k) {
      const uint32_t p = tuple_postings_[k];
      const uint32_t* it = posting_tids_.data() + posting_offsets_[p];
      const uint32_t* end = posting_tids_.data() + posting_offsets_[p + 1];
      while (it != end) {
        const uint32_t t = table_ids_[*it];
        if (skip_table[t]) {
          it = std::lower_bound(it, end, table_begin_[t + 1]);
        } else {
          fn(*it++);
        }
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
  FdProblem(size_t num_columns, std::vector<std::string> column_names,
            const ValueDict* dict)
      : num_columns_(num_columns),
        column_names_(std::move(column_names)),
        dict_(dict) {}

  size_t num_columns_;
  std::vector<std::string> column_names_;
  std::vector<uint32_t> table_ids_;  ///< table id per TID
  /// First TID of each table, plus num_tuples() at the end: table l owns
  /// TIDs [table_begin_[l], table_begin_[l + 1]). Non-decreasing (an empty
  /// table owns an empty range); ForEachCoPosted relies on it to skip a
  /// table's block of a TID-sorted posting list.
  std::vector<uint32_t> table_begin_;

  bool index_built_ = false;
  /// Session dictionary the rows were encoded against; not owned, must
  /// outlive the problem.
  const ValueDict* dict_;
  std::vector<uint32_t> codes_;  ///< num_tuples × num_columns code cells

  // CSR join graph. Only cross-table lists are kept (a singleton or
  // one-table list induces no edge). posting_offsets_ has one extra
  // trailing entry; the TIDs of posting p, in ascending order, are
  // posting_tids_[posting_offsets_[p] .. posting_offsets_[p+1]).
  // tuple_offsets_/tuple_postings_ map each TID to the posting lists
  // containing it.
  std::vector<uint64_t> posting_offsets_;
  std::vector<uint32_t> posting_tids_;
  std::vector<uint64_t> tuple_offsets_;
  std::vector<uint32_t> tuple_postings_;

  std::vector<std::vector<uint32_t>> components_;
  FdIndexStats index_stats_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_PROBLEM_H_
