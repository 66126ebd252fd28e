#include "table/table.h"

#include <cassert>

#include "util/str.h"

namespace lakefuzz {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.resize(schema_.NumFields());
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.NumFields()) {
    return Status::InvalidArgument(StrFormat(
        "row has %zu values, schema has %zu fields", row.size(),
        schema_.NumFields()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

const Value& Table::At(size_t row, size_t col) const {
  assert(row < num_rows_ && col < columns_.size());
  return columns_[col][row];
}

void Table::Set(size_t row, size_t col, Value v) {
  assert(row < num_rows_ && col < columns_.size());
  columns_[col][row] = std::move(v);
}

const std::vector<Value>& Table::ColumnValues(size_t col) const {
  assert(col < columns_.size());
  return columns_[col];
}

std::vector<Value> Table::Row(size_t row) const {
  assert(row < num_rows_);
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col[row]);
  return out;
}

size_t Table::NullCount(size_t col) const {
  assert(col < columns_.size());
  size_t n = 0;
  for (const auto& v : columns_[col]) {
    if (v.is_null()) ++n;
  }
  return n;
}

Result<Table> Table::FromRows(std::string name,
                              std::vector<std::string> column_names,
                              std::vector<std::vector<Value>> rows) {
  Table t(std::move(name), Schema::FromNames(column_names));
  for (auto& row : rows) {
    LAKEFUZZ_RETURN_IF_ERROR(t.AppendRow(std::move(row)));
  }
  return t;
}

Table Table::SelectRows(const std::vector<size_t>& row_indices) const {
  Table out(name_, schema_);
  for (size_t r : row_indices) {
    assert(r < num_rows_);
    std::vector<Value> row;
    row.reserve(columns_.size());
    for (const auto& col : columns_) row.push_back(col[r]);
    Status s = out.AppendRow(std::move(row));
    assert(s.ok());
    (void)s;
  }
  return out;
}

}  // namespace lakefuzz
