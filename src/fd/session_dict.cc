#include "fd/session_dict.h"

#include "util/thread_pool.h"

namespace lakefuzz {

std::shared_ptr<const EncodedTable> SessionDict::Encode(
    std::shared_ptr<const Table> table, ThreadPool* pool) {
  auto out = std::make_shared<EncodedTable>();
  out->codes.resize(table->NumColumns());
  MaybeParallelFor(pool, table->NumColumns(), [&](size_t c) {
    const std::vector<Value>& values = table->ColumnValues(c);
    std::vector<uint32_t>& codes = out->codes[c];
    codes.reserve(values.size());
    for (const Value& v : values) codes.push_back(dict_.Intern(v));
  });
  out->table = std::move(table);
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
  for (const Table& t : tables) {
    out.push_back(dict->Encode(std::make_shared<const Table>(t), pool));
  }
  return out;
}

TableList TablesOf(const EncodedTables& tables) {
  TableList out;
  out.reserve(tables.size());
  for (const auto& t : tables) out.push_back(t->table.get());
  return out;
}

}  // namespace lakefuzz
