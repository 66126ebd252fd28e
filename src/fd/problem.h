// FdProblem: the outer-union representation Full Disjunction operates on.
//
// Every input tuple is padded to the universal schema with nulls and tagged
// with its source table and a global tuple id (TID), as a flat uint32 code
// row. BuildInterned is the only way to make a problem: it gathers the rows
// from encoded tables' session codes, so TIDs always run in table order,
// then row order — each table's tuples form one contiguous TID range.
// BuildIndex then builds posting lists over (column, code) pairs. The
// posting lists *are* the join graph, stored implicitly in CSR form: tuples
// sharing an equal non-null value on a universal column are joinable
// neighbors, and a posting list of k tuples represents its k·(k−1)
// adjacency edges in O(k) space — no materialized all-pairs edge lists.
// Connected components of the graph partition the FD computation.
#ifndef LAKEFUZZ_FD_PROBLEM_H_
#define LAKEFUZZ_FD_PROBLEM_H_

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
  uint32_t num_tables() const { return num_tables_; }
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
  FdProblem(size_t num_columns, std::vector<std::string> column_names,
            const ValueDict* dict)
      : num_columns_(num_columns),
        column_names_(std::move(column_names)),
        dict_(dict) {}

  size_t num_columns_;
  std::vector<std::string> column_names_;
  std::vector<uint32_t> table_ids_;  ///< table id per TID
  uint32_t num_tables_ = 0;

  bool index_built_ = false;
  /// Session dictionary the rows were encoded against; not owned, must
  /// outlive the problem.
  const ValueDict* dict_;
  std::vector<uint32_t> codes_;  ///< num_tuples × num_columns code cells

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
