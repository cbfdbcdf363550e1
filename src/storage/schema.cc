#include "storage/schema.h"

#include "common/logging.h"

namespace kwsdbg {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    auto [it, inserted] = index_.emplace(columns_[i].name, i);
    KWSDBG_CHECK(inserted) << "duplicate column name: " << columns_[i].name;
  }
}

StatusOr<size_t> Schema::ColumnIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no column named '" + name + "'");
  }
  return it->second;
}

bool Schema::HasColumn(const std::string& name) const {
  return index_.count(name) > 0;
}

std::vector<size_t> Schema::TextColumnIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type == DataType::kString) out.push_back(i);
  }
  return out;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ":";
    out += DataTypeToString(columns_[i].type);
  }
  return out;
}

size_t EstimateTupleBytes(const Tuple& row) {
  static const size_t kSsoCapacity = std::string().capacity();
  size_t bytes = row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.is_string() && v.AsString().capacity() > kSsoCapacity) {
      bytes += v.AsString().capacity() + 1;  // +1: the NUL terminator
    }
  }
  return bytes;
}

}  // namespace kwsdbg
