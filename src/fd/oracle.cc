#include "fd/oracle.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "util/str.h"

namespace lakefuzz {
namespace {

/// Largest input the oracle enumerates: 2^20 subsets. Keeps every subset
/// mask well inside 32 bits.
constexpr size_t kMaxRows = 20;

/// One input row padded to the universal schema with nulls.
struct PaddedRow {
  size_t table = 0;
  std::vector<Value> values;
};

/// Join-consistency of a subset: every column has at most one distinct
/// non-null value. Fills `merged` with the join on success.
bool SubsetConsistent(const std::vector<PaddedRow>& rows,
                      const std::vector<uint32_t>& subset,
                      std::vector<Value>* merged) {
  const size_t cols = rows[subset[0]].values.size();
  merged->assign(cols, Value::Null());
  for (uint32_t tid : subset) {
    const auto& vals = rows[tid].values;
    for (size_t c = 0; c < cols; ++c) {
      if (vals[c].is_null()) continue;
      if ((*merged)[c].is_null()) {
        (*merged)[c] = vals[c];
      } else if (!((*merged)[c] == vals[c])) {
        return false;
      }
    }
  }
  return true;
}

/// Connectivity of a subset under "shares an equal non-null value".
bool SubsetConnected(const std::vector<PaddedRow>& rows,
                     const std::vector<uint32_t>& subset) {
  if (subset.size() <= 1) return true;
  auto share_value = [&](uint32_t a, uint32_t b) {
    const auto& va = rows[a].values;
    const auto& vb = rows[b].values;
    for (size_t c = 0; c < va.size(); ++c) {
      if (!va[c].is_null() && !vb[c].is_null() && va[c] == vb[c]) return true;
    }
    return false;
  };
  // BFS from subset[0] over the pairwise share-value graph.
  std::vector<char> visited(subset.size(), 0);
  std::vector<size_t> frontier{0};
  visited[0] = 1;
  size_t reached = 1;
  while (!frontier.empty()) {
    size_t i = frontier.back();
    frontier.pop_back();
    for (size_t j = 0; j < subset.size(); ++j) {
      if (visited[j] || !share_value(subset[i], subset[j])) continue;
      visited[j] = 1;
      ++reached;
      frontier.push_back(j);
    }
  }
  return reached == subset.size();
}

/// True when `b` carries all of `a`'s information: equal wherever `a` is
/// non-null.
bool Covers(const FdResultTuple& b, const FdResultTuple& a) {
  for (size_t c = 0; c < a.values.size(); ++c) {
    if (!a.values[c].is_null() && !(b.values[c] == a.values[c])) return false;
  }
  return true;
}

/// Which of two equal joins survives: the most complete provenance, then the
/// lexicographically smallest.
bool PreferredProvenance(const FdResultTuple& a, const FdResultTuple& b) {
  if (a.tids.size() != b.tids.size()) return a.tids.size() > b.tids.size();
  return a.tids < b.tids;
}

}  // namespace

Result<std::vector<FdResultTuple>> NaiveFdOracle(
    const std::vector<Table>& tables, const AlignedSchema& aligned) {
  // The alignment's shape: one map per table, each table column on its own
  // in-range universal column.
  bool fits = aligned.column_map.size() == tables.size();
  for (size_t l = 0; fits && l < tables.size(); ++l) {
    const std::vector<size_t>& map = aligned.column_map[l];
    const std::set<size_t> used(map.begin(), map.end());
    fits = map.size() == tables[l].NumColumns() && used.size() == map.size() &&
           (used.empty() || *used.rbegin() < aligned.NumUniversal());
  }
  if (!fits) return Status::InvalidArgument("alignment does not fit tables");
  std::vector<PaddedRow> rows;
  for (size_t l = 0; l < tables.size(); ++l) {
    for (size_t r = 0; r < tables[l].NumRows(); ++r) {
      PaddedRow row{l, std::vector<Value>(aligned.NumUniversal())};
      for (size_t c = 0; c < tables[l].NumColumns(); ++c) {
        row.values[aligned.column_map[l][c]] = tables[l].At(r, c);
      }
      rows.push_back(std::move(row));
    }
  }
  const size_t n = rows.size();
  if (n > kMaxRows) {
    return Status::InvalidArgument(
        StrFormat("oracle limited to %zu rows, got %zu", kMaxRows, n));
  }
  // table_rows[l]: the mask bits of table l's rows. An FD set holds at most
  // one tuple per relation.
  std::vector<uint32_t> table_rows(tables.size(), 0);
  for (size_t i = 0; i < n; ++i) table_rows[rows[i].table] |= 1u << i;

  std::vector<FdResultTuple> joins;
  std::vector<Value> merged;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    bool table_repeat = false;
    for (uint32_t bits : table_rows) {
      const uint32_t chosen = mask & bits;
      if ((chosen & (chosen - 1)) != 0) {  // two or more bits set
        table_repeat = true;
        break;
      }
    }
    if (table_repeat) continue;
    std::vector<uint32_t> subset;
    for (uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(i);
    }
    if (!SubsetConsistent(rows, subset, &merged)) continue;
    if (!SubsetConnected(rows, subset)) continue;
    FdResultTuple t;
    t.values = merged;
    t.tids = std::move(subset);
    joins.push_back(std::move(t));
  }

  // All-pairs elimination: a join goes when another one covers it and
  // either carries strictly more information or is an equal join with the
  // preferred provenance.
  std::vector<FdResultTuple> out;
  for (size_t i = 0; i < joins.size(); ++i) {
    bool dropped = false;
    for (size_t j = 0; j < joins.size() && !dropped; ++j) {
      dropped = j != i && Covers(joins[j], joins[i]) &&
                (joins[j].values != joins[i].values ||
                 PreferredProvenance(joins[j], joins[i]));
    }
    if (!dropped) out.push_back(joins[i]);
  }
  std::sort(out.begin(), out.end(),
            [](const FdResultTuple& a, const FdResultTuple& b) {
              return a.tids < b.tids;
            });
  return out;
}

}  // namespace lakefuzz
