#include "storage/table.h"

#include <algorithm>

namespace kwsdbg {

namespace {
bool TypeMatches(const Value& v, DataType t) {
  if (v.is_null()) return true;
  switch (t) {
    case DataType::kInt64:
      return v.is_int();
    case DataType::kDouble:
      return v.is_double() || v.is_int();
    case DataType::kString:
      return v.is_string();
  }
  return false;
}
}  // namespace

Status Table::RefuseIfSpilled(const char* call) const {
  if (!spilled_) return Status::OK();
  return Status::FailedPrecondition(std::string(call) + " on spilled table '" +
                                    name_ + "': spilled tables are read-only");
}

Status Table::AppendRow(Tuple row) {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("AppendRow"));
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!TypeMatches(row[i], schema_.column(i).type)) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(i).name +
          "' of table " + name_ + ": got " + row[i].ToString());
    }
  }
  AppendRowUnchecked(std::move(row));
  return Status::OK();
}

Status Table::DeleteRow(size_t row) {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("DeleteRow"));
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range for table " + name_);
  }
  if (deleted(row)) {
    return Status::FailedPrecondition("row " + std::to_string(row) +
                                      " of table " + name_ +
                                      " is already deleted");
  }
  const size_t cols = schema_.num_columns();
  for (size_t c = 0; c < cols; ++c) rows_[row][c] = Value::Null();
  if (deleted_.size() < num_rows()) deleted_.resize(num_rows(), false);
  deleted_[row] = true;
  ++deleted_count_;
  return Status::OK();
}

StatusOr<Value> Table::ValueByName(size_t row, const std::string& col) const {
  KWSDBG_ASSIGN_OR_RETURN(size_t idx, schema_.ColumnIndex(col));
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range for table " + name_);
  }
  return at(row, idx);
}

Status Table::SetValue(size_t row, size_t col, Value value) {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("SetValue"));
  if (row >= num_rows() || col >= schema_.num_columns()) {
    return Status::OutOfRange("cell (" + std::to_string(row) + ", " +
                              std::to_string(col) + ") out of range");
  }
  if (deleted(row)) {
    return Status::FailedPrecondition("update of deleted row " +
                                      std::to_string(row) + " in table " +
                                      name_);
  }
  if (!TypeMatches(value, schema_.column(col).type)) {
    return Status::InvalidArgument("type mismatch in column '" +
                                   schema_.column(col).name + "'");
  }
  rows_[row][col] = std::move(value);
  return Status::OK();
}

StatusOr<std::vector<uint32_t>> Table::Compact() {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("Compact"));
  const size_t n = num_rows();
  std::vector<uint32_t> remap(n, kDeletedRow);
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    if (deleted(i)) continue;
    remap[i] = static_cast<uint32_t>(out);
    if (out != i) rows_[out] = std::move(rows_[i]);
    ++out;
  }
  rows_.resize(out);
  deleted_.clear();
  deleted_count_ = 0;
  BumpDataEpoch();
  return remap;
}

size_t Table::EstimateBytes() const {
  // Count what the allocator actually holds: the row vector's full capacity
  // (not just its size), then each tuple under EstimateTupleBytes.
  size_t bytes = sizeof(Table) + rows_.capacity() * sizeof(Tuple) +
                 extents_.capacity() * sizeof(PageExtent);
  for (const Tuple& r : rows_) bytes += EstimateTupleBytes(r);
  return bytes;
}

Status Table::Spill(BufferPool* pool, DiskManager* disk) {
  if (spilled_) {
    return Status::FailedPrecondition("table '" + name_ +
                                      "' is already spilled");
  }
  pool_ = pool;
  // Encode the rows into page-sized extents, moving each into its chunk.
  const size_t page_size = disk->page_size();
  std::string buf;
  std::vector<Tuple> chunk;
  size_t first_row = 0;
  size_t chunk_bytes = sizeof(uint32_t);  // row-count header

  auto flush_chunk = [&]() -> Status {
    if (chunk.empty()) return Status::OK();
    size_t num_pages = (chunk_bytes + page_size - 1) / page_size;
    KWSDBG_ASSIGN_OR_RETURN(uint64_t first_page,
                            disk->AllocatePages(num_pages));
    buf.clear();
    EncodeRows(chunk, &buf);
    buf.resize(num_pages * page_size, '\0');
    KWSDBG_RETURN_NOT_OK(disk->WritePages(first_page, num_pages, buf.data()));
    PageExtent ext;
    ext.first_page = first_page;
    ext.num_pages = static_cast<uint32_t>(num_pages);
    ext.first_row = static_cast<uint32_t>(first_row);
    ext.num_rows = static_cast<uint32_t>(chunk.size());
    extents_.push_back(ext);
    on_disk_bytes_ += num_pages * page_size;
    first_row += chunk.size();
    chunk.clear();
    chunk_bytes = sizeof(uint32_t);
    return Status::OK();
  };

  for (Tuple& r : rows_) {
    size_t row_bytes = EncodedRowSize(r);
    if (!chunk.empty() && chunk_bytes + row_bytes > page_size) {
      KWSDBG_RETURN_NOT_OK(flush_chunk());
    }
    chunk_bytes += row_bytes;
    chunk.push_back(std::move(r));
  }
  KWSDBG_RETURN_NOT_OK(flush_chunk());
  spilled_rows_ = rows_.size();
  rows_.clear();
  rows_.shrink_to_fit();
  spilled_ = true;
  return Status::OK();
}

const PageExtent& Table::ExtentForRow(size_t row) const {
  // Binary search for the extent whose [first_row, first_row + num_rows)
  // covers `row`.
  auto it = std::upper_bound(
      extents_.begin(), extents_.end(), row,
      [](size_t r, const PageExtent& e) { return r < e.first_row; });
  KWSDBG_CHECK(it != extents_.begin())
      << "row " << row << " below first extent of table '" << name_ << "'";
  --it;
  KWSDBG_CHECK(row < static_cast<size_t>(it->first_row) + it->num_rows)
      << "row " << row << " past end of spilled table '" << name_ << "'";
  return *it;
}

const Tuple& Table::SpilledRow(size_t i) const {
  const PageExtent& ext = ExtentForRow(i);
  auto row_or = pool_->Fetch(ext.first_page, ext.num_pages, i - ext.first_row);
  // at()/row() have no error channel; a failed or corrupt page read is a
  // broken invariant of our own spill file, not a recoverable condition.
  KWSDBG_CHECK(row_or.ok()) << "page read failed for table '" << name_
                            << "': " << row_or.status().ToString();
  return **row_or;
}

}  // namespace kwsdbg
