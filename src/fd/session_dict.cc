#include "fd/session_dict.h"

#include <unordered_set>

#include "util/thread_pool.h"

namespace lakefuzz {

std::shared_ptr<const EncodedTable> SessionDict::Encode(const Table& table,
                                                        std::string name,
                                                        ThreadPool* pool) {
  auto out = std::make_shared<EncodedTable>();
  out->name = std::move(name);
  out->schema = table.schema();
  out->codes.resize(table.NumColumns());
  MaybeParallelFor(pool, table.NumColumns(), [&](size_t c) {
    const std::vector<Value>& values = table.ColumnValues(c);
    std::vector<uint32_t>& codes = out->codes[c];
    codes.reserve(values.size());
    for (const Value& v : values) codes.push_back(dict_.Intern(v));
  });
  return out;
}

uint32_t SessionDict::RestoreValue(Value v, uint64_t hash) {
  if (v.is_null()) return ValueDict::kNullCode;
  return dict_.InternHashed(std::move(v), hash);
}

EncodedTables EncodeTables(const std::vector<Table>& tables,
                           SessionDict* dict, ThreadPool* pool) {
  EncodedTables out;
  out.reserve(tables.size());
  for (const Table& t : tables) out.push_back(dict->Encode(t, t.name(), pool));
  return out;
}

std::vector<uint32_t> DistinctCodes(const std::vector<uint32_t>& column,
                                    size_t limit) {
  std::vector<uint32_t> out;
  std::unordered_set<uint32_t> seen;
  for (uint32_t code : column) {
    if (out.size() >= limit) break;
    if (code != ValueDict::kNullCode && seen.insert(code).second) {
      out.push_back(code);
    }
  }
  return out;
}

}  // namespace lakefuzz
