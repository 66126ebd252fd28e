#include "fd/problem.h"

#include <algorithm>

#include "fd/posting_shards.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace lakefuzz {

Result<FdProblem> FdProblem::BuildInterned(const EncodedTables& tables,
                                           const AlignedSchema& aligned,
                                           const ValueDict& dict,
                                           const CodeRemaps& remaps) {
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, tables));
  FdProblem problem(aligned.NumUniversal(), aligned.universal_names, &dict);
  const size_t cols = aligned.NumUniversal();
  size_t total_rows = 0;
  for (const auto& t : tables) total_rows += t->NumRows();
  problem.codes_.assign(total_rows * cols, kNullCode);
  problem.table_ids_.reserve(total_rows);
  problem.table_begin_.reserve(tables.size() + 1);

  size_t base = 0;
  for (size_t l = 0; l < tables.size(); ++l) {
    const EncodedTable& t = *tables[l];
    const size_t rows = t.NumRows();
    problem.table_begin_.push_back(static_cast<uint32_t>(base));
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
    problem.table_ids_.insert(problem.table_ids_.end(), rows,
                              static_cast<uint32_t>(l));
    base += rows;
  }
  problem.table_begin_.push_back(static_cast<uint32_t>(base));
  return problem;
}

std::vector<uint32_t> FdProblem::Neighbors(uint32_t tid) const {
  assert(index_built_);
  std::vector<char> own_table(num_tables(), 0);
  own_table[table_id(tid)] = 1;
  std::vector<uint32_t> out;
  ForEachCoPosted(tid, own_table.data(),
                  [&out](uint32_t other) { out.push_back(other); });
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

  // ---- Phase 1: sharded posting maps over (column, code) integer keys
  // (fd/posting_shards.h). Lists within one table are then dropped — they
  // induce no join edges. A list is TID-sorted and TIDs are table-ordered,
  // so it spans two tables iff its first and last tuples' tables differ.
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
      if (table_ids_[lists[i].front()] == table_ids_[lists[i].back()]) {
        continue;
      }
      if (kept != i) lists[kept] = std::move(lists[i]);
      ++kept;
    }
    lists.resize(kept);
  });

  // ---- Phase 2: CSR posting arrays + union-find component merge. Shards
  // write disjoint ranges and merge through one lock-free union-find.
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

  AtomicUnionFind uf(n);
  MaybeParallelFor(pool, shards, [&](size_t s) {
    size_t p = posting_base[s];
    size_t e = entry_base[s];
    for (const auto& lst : shard[s].lists) {
      posting_offsets_[p++] = e;
      for (size_t i = 0; i < lst.size(); ++i) {
        posting_tids_[e++] = lst[i];
        if (i > 0) uf.Union(lst[0], lst[i]);
      }
    }
  });
  shard.clear();

  // ---- Phase 3: tuple → posting-list CSR (counting sort over the flat
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

  // ---- Phase 4: components, grouped by union-find root. Iterating TIDs in
  // order makes every component sorted and the component list ordered by
  // smallest member, independent of shard count or thread schedule.
  components_.clear();
  std::vector<uint32_t> comp_of_root(n, UINT32_MAX);
  for (uint32_t tid = 0; tid < n; ++tid) {
    uint32_t& slot = comp_of_root[uf.Find(tid)];
    if (slot == UINT32_MAX) {
      slot = static_cast<uint32_t>(components_.size());
      components_.emplace_back();
    }
    components_[slot].push_back(tid);
  }

  // The session dictionary spans the whole session, not this problem:
  // count the codes actually present.
  std::vector<char> seen(dict_->NumDistinct() + 1, 0);
  size_t distinct = 0;
  for (uint32_t code : codes_) {
    if (code == kNullCode || seen[code]) continue;
    seen[code] = 1;
    ++distinct;
  }
  index_stats_.distinct_values = distinct;
  index_stats_.posting_lists = num_postings;
  index_stats_.posting_entries = num_entries;
  index_built_ = true;
}

}  // namespace lakefuzz
