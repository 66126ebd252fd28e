#include "match/schema_matcher.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "util/str.h"

namespace lakefuzz {

HolisticSchemaMatcher::HolisticSchemaMatcher(
    std::shared_ptr<const EmbeddingCache> embeddings,
    SchemaMatcherOptions options)
    : embeddings_(std::move(embeddings)), options_(options) {}

Result<AlignedSchema> HolisticSchemaMatcher::Align(
    const EncodedTables& tables, const ValueDict& dict) const {
  struct ColRef {
    size_t table;
    size_t col;
  };
  std::vector<ColRef> cols;
  for (size_t l = 0; l < tables.size(); ++l) {
    for (size_t c = 0; c < tables[l]->NumColumns(); ++c) {
      cols.push_back(ColRef{l, c});
    }
  }

  ColumnEmbedder embedder(embeddings_, options_.embedder);
  std::vector<Vec> sigs(cols.size());
  std::vector<std::string> values;
  for (size_t i = 0; i < cols.size(); ++i) {
    const EncodedTable& t = *tables[cols[i].table];
    values.clear();
    for (uint32_t code : DistinctCodes(t.codes[cols[i].col],
                                       options_.embedder.sample_size)) {
      values.push_back(dict.Decode(code).ToString());
    }
    sigs[i] = embedder.EmbedColumn(values);
  }

  // Candidate edges between columns of different tables, best-first.
  struct Edge {
    double sim;
    size_t a;
    size_t b;
  };
  std::vector<Edge> edges;
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t j = i + 1; j < cols.size(); ++j) {
      if (cols[i].table == cols[j].table) continue;
      // EmbedColumn signatures are unit (or zero) vectors, so the
      // pre-normalized dot is the cosine similarity without the O(dim)
      // norm recomputations of the general CosineSimilarity.
      double sim = DotPrenormalized(sigs[i], sigs[j]);
      const std::string& ni =
          tables[cols[i].table]->schema.field(cols[i].col).name;
      const std::string& nj =
          tables[cols[j].table]->schema.field(cols[j].col).name;
      if (!ni.empty() && ni == nj) sim += options_.header_bonus;
      if (sim >= options_.similarity_threshold) {
        edges.push_back(Edge{sim, i, j});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.sim != y.sim) return x.sim > y.sim;
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });

  // Greedy constrained merge: a cluster may hold at most one column per
  // table (columns of one table never align with each other, Sec 2.1).
  std::vector<size_t> cluster(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) cluster[i] = i;
  std::unordered_map<size_t, std::set<size_t>> tables_in_cluster;
  for (size_t i = 0; i < cols.size(); ++i) {
    tables_in_cluster[i] = {cols[i].table};
  }
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (cluster[x] != x) {
      cluster[x] = cluster[cluster[x]];
      x = cluster[x];
    }
    return x;
  };
  for (const Edge& e : edges) {
    size_t ra = find(e.a);
    size_t rb = find(e.b);
    if (ra == rb) continue;
    const auto& ta = tables_in_cluster[ra];
    const auto& tb = tables_in_cluster[rb];
    bool conflict = false;
    for (size_t t : tb) {
      if (ta.count(t)) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    cluster[rb] = ra;
    tables_in_cluster[ra].insert(tb.begin(), tb.end());
    tables_in_cluster.erase(rb);
  }

  // Materialize clusters in deterministic (first-member) order.
  std::map<size_t, std::vector<size_t>> members;  // root -> column indices
  for (size_t i = 0; i < cols.size(); ++i) members[find(i)].push_back(i);

  AlignedSchema out;
  out.column_map.resize(tables.size());
  for (size_t l = 0; l < tables.size(); ++l) {
    out.column_map[l].resize(tables[l]->NumColumns());
  }
  std::unordered_map<std::string, size_t> name_uses;
  // Iterate clusters ordered by their smallest member index.
  std::vector<std::pair<size_t, const std::vector<size_t>*>> ordered;
  for (const auto& [root, mem] : members) {
    ordered.emplace_back(*std::min_element(mem.begin(), mem.end()), &mem);
  }
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [first_idx, mem] : ordered) {
    (void)first_idx;
    // Universal name: most frequent header, ties → earliest member.
    std::map<std::string, size_t> counts;
    for (size_t i : *mem) {
      ++counts[tables[cols[i].table]->schema.field(cols[i].col).name];
    }
    std::string best;
    size_t best_count = 0;
    for (size_t i : *mem) {
      const std::string& name =
          tables[cols[i].table]->schema.field(cols[i].col).name;
      if (counts[name] > best_count) {
        best_count = counts[name];
        best = name;
      }
    }
    if (best.empty()) best = "col";
    size_t uses = name_uses[best]++;
    std::string uname = uses == 0 ? best : StrFormat("%s_%zu", best.c_str(), uses);
    size_t u = out.universal_names.size();
    out.universal_names.push_back(uname);
    for (size_t i : *mem) {
      out.column_map[cols[i].table][cols[i].col] = u;
    }
  }
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(out, tables));
  return out;
}

}  // namespace lakefuzz
