#include "em/entity_matcher.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "embedding/vector_ops.h"
#include "text/distance.h"
#include "text/normalize.h"
#include "text/tokenize.h"

namespace lakefuzz {

EntityMatcher::EntityMatcher(EntityMatcherOptions options)
    : options_(std::move(options)) {}

double EntityMatcher::RowSimilarity(const Table& table, size_t row_a,
                                    size_t row_b) const {
  double acc = 0.0;
  size_t overlap = 0;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const Value& va = table.At(row_a, c);
    const Value& vb = table.At(row_b, c);
    if (va.is_null() || vb.is_null()) continue;
    ++overlap;
    if (va == vb) {
      acc += 1.0;
      continue;
    }
    std::string sa = Normalize(va.ToString());
    std::string sb = Normalize(vb.ToString());
    if (sa == sb) {
      acc += 1.0;
    } else if (options_.embeddings != nullptr) {
      acc += std::max(
          0.0, CosineSimilarity(*options_.embeddings->GetNormalized(sa),
                                *options_.embeddings->GetNormalized(sb)));
    } else {
      acc += JaroWinklerSimilarity(sa, sb);
    }
  }
  if (overlap < options_.min_overlap_columns) return 0.0;
  return acc / static_cast<double>(overlap);
}

std::vector<std::vector<size_t>> EntityMatcher::Cluster(
    const Table& table) const {
  const size_t n = table.NumRows();
  // Token blocking over all string-ish cells.
  std::unordered_map<std::string, std::vector<size_t>> blocks;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      const Value& v = table.At(r, c);
      if (v.is_null()) continue;
      for (const auto& tok : WordTokens(Normalize(v.ToString()))) {
        if (tok.size() < 2) continue;
        auto& block = blocks[tok];
        if (block.empty() || block.back() != r) block.push_back(r);
      }
    }
  }

  // Union-find over rows.
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // Score candidate pairs within blocks once (dedup via set of pairs).
  std::unordered_map<uint64_t, char> scored;
  for (const auto& [tok, rows] : blocks) {
    (void)tok;
    if (rows.size() < 2 || rows.size() > options_.max_block_size) continue;
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        size_t a = rows[i];
        size_t b = rows[j];
        if (find(a) == find(b)) continue;
        uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
        if (!scored.emplace(key, 1).second) continue;
        if (RowSimilarity(table, a, b) >= options_.similarity_threshold) {
          parent[find(a)] = find(b);
        }
      }
    }
  }

  std::unordered_map<size_t, std::vector<size_t>> groups;
  for (size_t r = 0; r < n; ++r) groups[find(r)].push_back(r);
  std::vector<std::vector<size_t>> out;
  out.reserve(groups.size());
  for (auto& [root, members] : groups) {
    (void)root;
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<uint64_t>> ExpandClustersToTids(
    const std::vector<FdResultTuple>& rows,
    const std::vector<std::vector<size_t>>& row_clusters) {
  std::vector<std::vector<uint64_t>> out;
  out.reserve(row_clusters.size());
  for (const auto& cluster : row_clusters) {
    std::vector<uint64_t> tids;
    for (size_t r : cluster) {
      for (uint32_t tid : rows[r].tids) tids.push_back(tid);
    }
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    out.push_back(std::move(tids));
  }
  return out;
}

}  // namespace lakefuzz
