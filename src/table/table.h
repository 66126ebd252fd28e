// Table: the in-memory relational unit lakefuzz reads and writes.
//
// Storage is columnar (vector<Value> per column). CSV I/O, integrated
// results, tests and examples hold Tables; registration encodes each one
// once into a column-wise code record (fd/session_dict.h EncodedTable),
// which is what alignment, matching and Full Disjunction read.
#ifndef LAKEFUZZ_TABLE_TABLE_H_
#define LAKEFUZZ_TABLE_TABLE_H_

#include <string>
#include <vector>

#include "table/schema.h"
#include "table/value.h"
#include "util/result.h"

namespace lakefuzz {

/// A named table: schema + columnar rows.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return schema_.NumFields(); }

  /// Appends a row; `row.size()` must equal NumColumns().
  Status AppendRow(std::vector<Value> row);

  /// Cell accessors (bounds-asserted in debug builds).
  const Value& At(size_t row, size_t col) const;
  void Set(size_t row, size_t col, Value v);

  /// Whole-column view.
  const std::vector<Value>& ColumnValues(size_t col) const;

  /// Materializes one row.
  std::vector<Value> Row(size_t row) const;

  /// Number of nulls in a column.
  size_t NullCount(size_t col) const;

  /// Builds a table from rows (convenience for tests and examples).
  static Result<Table> FromRows(std::string name,
                                std::vector<std::string> column_names,
                                std::vector<std::vector<Value>> rows);

  /// Returns a copy restricted to `row_indices` (in the given order).
  Table SelectRows(const std::vector<size_t>& row_indices) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_TABLE_TABLE_H_
