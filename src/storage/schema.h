// Table schemas: ordered, named, typed columns.
#ifndef KWSDBG_STORAGE_SCHEMA_H_
#define KWSDBG_STORAGE_SCHEMA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/value.h"

namespace kwsdbg {

/// A single column definition.
struct Column {
  std::string name;
  DataType type;

  bool operator==(const Column& other) const = default;
};

/// An ordered list of columns with O(1) name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the named column, or error if absent.
  StatusOr<size_t> ColumnIndex(const std::string& name) const;

  /// True iff a column with this name exists.
  bool HasColumn(const std::string& name) const;

  /// Indices of all kString columns — the attributes LIKE predicates and the
  /// inverted index apply to.
  std::vector<size_t> TextColumnIndices() const;

  /// "name:TYPE, name:TYPE, ..." for debugging.
  std::string ToString() const;

  bool operator==(const Schema& other) const {
    return columns_ == other.columns_;
  }

 private:
  std::vector<Column> columns_;
  std::unordered_map<std::string, size_t> index_;
};

/// A row: one Value per schema column.
using Tuple = std::vector<Value>;

/// Heap bytes a row holds past its own vector header: its capacity in
/// Values and each heap string payload (strings short enough for the
/// small-string optimization live inside sizeof(Value) and add nothing).
/// The rule Table::EstimateBytes and the buffer pool's frame charge share.
size_t EstimateTupleBytes(const Tuple& row);

}  // namespace kwsdbg

#endif  // KWSDBG_STORAGE_SCHEMA_H_
