#include "fd/aligned_schema.h"

#include <unordered_map>
#include <unordered_set>

#include "util/str.h"

namespace lakefuzz {

std::vector<std::pair<size_t, size_t>> AlignedSchema::SourcesOf(
    size_t u) const {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t l = 0; l < column_map.size(); ++l) {
    for (size_t c = 0; c < column_map[l].size(); ++c) {
      if (column_map[l][c] == u) out.emplace_back(l, c);
    }
  }
  return out;
}

Result<AlignedSchema> AlignByName(const EncodedTables& tables) {
  AlignedSchema out;
  std::unordered_map<std::string, size_t> name_to_universal;
  out.column_map.resize(tables.size());
  for (size_t l = 0; l < tables.size(); ++l) {
    std::unordered_set<std::string> seen_in_table;
    for (size_t c = 0; c < tables[l]->NumColumns(); ++c) {
      const std::string& name = tables[l]->schema.field(c).name;
      if (!seen_in_table.insert(name).second) {
        return Status::InvalidArgument(
            StrFormat("table '%s' repeats column name '%s'",
                      tables[l]->name.c_str(), name.c_str()));
      }
      auto [it, inserted] =
          name_to_universal.emplace(name, out.universal_names.size());
      if (inserted) out.universal_names.push_back(name);
      out.column_map[l].push_back(it->second);
    }
  }
  return out;
}

Status ValidateAlignedSchema(const AlignedSchema& aligned,
                             const EncodedTables& tables) {
  if (aligned.column_map.size() != tables.size()) {
    return Status::InvalidArgument(
        StrFormat("column_map covers %zu tables, input has %zu",
                  aligned.column_map.size(), tables.size()));
  }
  for (size_t l = 0; l < tables.size(); ++l) {
    if (aligned.column_map[l].size() != tables[l]->NumColumns()) {
      return Status::InvalidArgument(
          StrFormat("column_map[%zu] has %zu entries, table has %zu columns",
                    l, aligned.column_map[l].size(),
                    tables[l]->NumColumns()));
    }
    std::unordered_set<size_t> used;
    for (size_t u : aligned.column_map[l]) {
      if (u >= aligned.universal_names.size()) {
        return Status::OutOfRange(
            StrFormat("universal index %zu out of range (%zu)", u,
                      aligned.universal_names.size()));
      }
      if (!used.insert(u).second) {
        return Status::InvalidArgument(StrFormat(
            "table %zu maps two columns to universal column %zu", l, u));
      }
    }
  }
  return Status::OK();
}

}  // namespace lakefuzz
