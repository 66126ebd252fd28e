#include "fd/problem.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "fd/posting_shards.h"
#include "util/hash.h"
#include "util/str.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace lakefuzz {

Result<FdProblem> FdProblem::BuildInterned(const EncodedTables& tables,
                                           const AlignedSchema& aligned,
                                           const ValueDict& dict,
                                           const CodeRemaps& remaps) {
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, TablesOf(tables)));
  FdProblem problem(aligned.NumUniversal(), aligned.universal_names);
  const size_t cols = aligned.NumUniversal();
  size_t total_rows = 0;
  for (const auto& t : tables) total_rows += t->table->NumRows();
  problem.codes_.assign(total_rows * cols, kNullCode);
  problem.table_ids_.reserve(total_rows);

  size_t base = 0;
  for (size_t l = 0; l < tables.size(); ++l) {
    const EncodedTable& t = *tables[l];
    const size_t rows = t.table->NumRows();
    for (size_t c = 0; c < t.codes.size(); ++c) {
      const uint32_t* src = t.codes[c].data();
      uint32_t* dst = problem.codes_.data() + base * cols +
                      aligned.column_map[l][c];
      if (l >= remaps.size() || c >= remaps[l].size() ||
          remaps[l][c].empty()) {
        for (size_t r = 0; r < rows; ++r) dst[r * cols] = src[r];
        continue;
      }
      const CodeRemap& remap = remaps[l][c];
      for (size_t r = 0; r < rows; ++r) {
        auto it = remap.find(src[r]);
        dst[r * cols] = it == remap.end() ? src[r] : it->second;
      }
    }
    for (size_t r = 0; r < rows; ++r) {
      problem.table_ids_.push_back(static_cast<uint32_t>(l));
    }
    problem.num_tables_ =
        std::max(problem.num_tables_, static_cast<uint32_t>(l) + 1);
    base += rows;
  }
  problem.external_dict_ = &dict;
  problem.codes_ready_ = true;
  return problem;
}

Status FdProblem::AddTuple(uint32_t table_id, std::vector<Value> values) {
  if (external_dict_ != nullptr) {
    return Status::InvalidArgument(
        "cannot AddTuple into a BuildInterned problem");
  }
  if (values.size() != num_columns_) {
    return Status::InvalidArgument(
        StrFormat("tuple has %zu values, problem has %zu columns",
                  values.size(), num_columns_));
  }
  tuples_.push_back(FdInputTuple{table_id, std::move(values)});
  table_ids_.push_back(table_id);
  num_tables_ = std::max(num_tables_, table_id + 1);
  index_built_ = false;
  codes_ready_ = false;
  return Status::OK();
}

std::vector<uint32_t> FdProblem::Neighbors(uint32_t tid) const {
  assert(index_built_);
  std::vector<uint32_t> out;
  ForEachCoPosted(tid, [&out](uint32_t other) { out.push_back(other); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::vector<std::vector<uint32_t>>& FdProblem::Components() const {
  assert(index_built_);
  return components_;
}

void FdProblem::BuildIndex(ThreadPool* pool) {
  if (index_built_) return;
  const uint32_t n = static_cast<uint32_t>(num_tuples());
  const size_t cols = num_columns_;
  const size_t cells = static_cast<size_t>(n) * cols;

  if (!codes_ready_) {
    // ---- Phase 1: hash every non-null cell (pure per tuple → parallel).
    std::vector<uint64_t> cell_hash(cells, 0);
    MaybeParallelFor(pool, n, [&](size_t tid) {
      const auto& vals = tuples_[tid].values;
      uint64_t* out = cell_hash.data() + tid * cols;
      for (size_t c = 0; c < cols; ++c) {
        if (!vals[c].is_null()) out[c] = vals[c].Hash();
      }
    });

    // ---- Phase 2: intern cells into flat code rows. Serial on purpose: the
    // first-occurrence order defines codes, so the dictionary is identical on
    // every run; the string hashing already happened in phase 1.
    dict_ = ValueDict();
    dict_.Reserve(cells / 4 + 16);
    codes_.assign(cells, kNullCode);
    for (uint32_t tid = 0; tid < n; ++tid) {
      const auto& vals = tuples_[tid].values;
      const uint64_t* h = cell_hash.data() + static_cast<size_t>(tid) * cols;
      uint32_t* out = codes_.data() + static_cast<size_t>(tid) * cols;
      for (size_t c = 0; c < cols; ++c) {
        if (!vals[c].is_null()) out[c] = dict_.InternHashed(vals[c], h[c]);
      }
    }
    codes_ready_ = true;
  }

  // ---- Phase 3: sharded posting maps over (column, code) integer keys
  // (fd/posting_shards.h). Singleton lists are then dropped — they induce
  // no join edges.
  std::vector<PostingShard> shard = BuildPostingShards(
      pool, n, cols,
      [this, cols](uint32_t tid) {
        return codes_.data() + static_cast<size_t>(tid) * cols;
      });
  const size_t shards = shard.size();
  MaybeParallelFor(pool, shards, [&](size_t s) {
    auto& lists = shard[s].lists;
    shard[s].index.clear();
    size_t kept = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (lists[i].size() < 2) continue;
      if (kept != i) lists[kept] = std::move(lists[i]);
      ++kept;
    }
    lists.resize(kept);
  });

  // ---- Phase 4: CSR posting arrays + union-find component merge. Shards
  // write disjoint ranges; the parallel path merges through a lock-free
  // union-find, the serial path through an iterative union-by-rank one.
  std::vector<size_t> posting_base(shards + 1, 0);
  std::vector<size_t> entry_base(shards + 1, 0);
  for (size_t s = 0; s < shards; ++s) {
    size_t entries = 0;
    for (const auto& lst : shard[s].lists) entries += lst.size();
    posting_base[s + 1] = posting_base[s] + shard[s].lists.size();
    entry_base[s + 1] = entry_base[s] + entries;
  }
  const size_t num_postings = posting_base[shards];
  const size_t num_entries = entry_base[shards];
  posting_offsets_.assign(num_postings + 1, 0);
  posting_offsets_[num_postings] = num_entries;
  posting_tids_.assign(num_entries, 0);

  auto fill_shard = [&](size_t s, auto& union_find) {
    size_t p = posting_base[s];
    size_t e = entry_base[s];
    for (const auto& lst : shard[s].lists) {
      posting_offsets_[p++] = e;
      for (size_t i = 0; i < lst.size(); ++i) {
        posting_tids_[e++] = lst[i];
        if (i > 0) union_find.Union(lst[0], lst[i]);
      }
    }
  };
  std::vector<uint32_t> root(n);
  if (pool != nullptr && shards > 1) {
    AtomicUnionFind uf(n);
    pool->ParallelFor(shards, [&](size_t s) { fill_shard(s, uf); });
    for (uint32_t i = 0; i < n; ++i) root[i] = uf.Find(i);
  } else {
    UnionFind uf(n);
    for (size_t s = 0; s < shards; ++s) fill_shard(s, uf);
    for (uint32_t i = 0; i < n; ++i) root[i] = uf.Find(i);
  }
  shard.clear();

  // ---- Phase 5: tuple → posting-list CSR (counting sort over the flat
  // posting entries; deterministic and O(entries)).
  tuple_offsets_.assign(n + 1, 0);
  for (size_t e = 0; e < num_entries; ++e) {
    ++tuple_offsets_[posting_tids_[e] + 1];
  }
  for (size_t i = 0; i < n; ++i) tuple_offsets_[i + 1] += tuple_offsets_[i];
  tuple_postings_.assign(num_entries, 0);
  std::vector<uint64_t> cursor(tuple_offsets_.begin(),
                               tuple_offsets_.end() - 1);
  for (size_t p = 0; p < num_postings; ++p) {
    for (uint64_t e = posting_offsets_[p]; e < posting_offsets_[p + 1]; ++e) {
      tuple_postings_[cursor[posting_tids_[e]]++] = static_cast<uint32_t>(p);
    }
  }

  // ---- Phase 6: components, grouped by union-find root. Iterating TIDs in
  // order makes every component sorted and the component list ordered by
  // smallest member, independent of shard count or thread schedule.
  components_.clear();
  std::vector<uint32_t> comp_of_root(n, UINT32_MAX);
  for (uint32_t tid = 0; tid < n; ++tid) {
    uint32_t& slot = comp_of_root[root[tid]];
    if (slot == UINT32_MAX) {
      slot = static_cast<uint32_t>(components_.size());
      components_.emplace_back();
    }
    components_[slot].push_back(tid);
  }

  if (external_dict_ == nullptr) {
    index_stats_.distinct_values = dict_.NumDistinct();
  } else {
    // Session dictionary: its size covers the whole session, not this
    // problem. Count the codes actually present so the stat keeps
    // describing the problem it is attached to.
    std::vector<char> seen(external_dict_->NumDistinct() + 1, 0);
    size_t distinct = 0;
    for (uint32_t code : codes_) {
      if (code == kNullCode || seen[code]) continue;
      seen[code] = 1;
      ++distinct;
    }
    index_stats_.distinct_values = distinct;
  }
  index_stats_.posting_lists = num_postings;
  index_stats_.posting_entries = num_entries;
  index_built_ = true;
}

}  // namespace lakefuzz
