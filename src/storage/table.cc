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

Status Table::AppendRow(Tuple row) {
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
  if (!spilled_) {
    for (size_t c = 0; c < cols; ++c) rows_[row][c] = Value::Null();
  } else if (row >= spilled_rows_) {
    Tuple& t = tail_rows_[row - spilled_rows_];
    for (size_t c = 0; c < cols; ++c) t[c] = Value::Null();
  } else {
    const PageExtent& ext = ExtentForRow(row);
    KWSDBG_ASSIGN_OR_RETURN(Tuple * t,
                            pool_->FetchMutable(ext.first_page, ext.num_pages,
                                                row - ext.first_row, this));
    for (size_t c = 0; c < cols; ++c) (*t)[c] = Value::Null();
  }
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
  if (!spilled_) {
    rows_[row][col] = std::move(value);
    return Status::OK();
  }
  if (row >= spilled_rows_) {
    tail_rows_[row - spilled_rows_][col] = std::move(value);
    return Status::OK();
  }
  const PageExtent& ext = ExtentForRow(row);
  KWSDBG_ASSIGN_OR_RETURN(Tuple * t,
                          pool_->FetchMutable(ext.first_page, ext.num_pages,
                                              row - ext.first_row, this));
  (*t)[col] = std::move(value);
  return Status::OK();
}

StatusOr<std::vector<uint32_t>> Table::Compact() {
  const size_t n = num_rows();
  std::vector<uint32_t> remap(n, kDeletedRow);
  if (!spilled_) {
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      if (deleted(i)) continue;
      remap[i] = static_cast<uint32_t>(out);
      if (out != i) rows_[out] = std::move(rows_[i]);
      ++out;
    }
    rows_.resize(out);
  } else {
    // Deep-copy the survivors out of the frames (each row() fetch may evict
    // the previous frame, so every tuple is copied before the next fetch),
    // then flush dirty frames while their pages still exist, drop the whole
    // pool (other tables' frames go cold but re-read correctly), free every
    // extent, and re-pack.
    std::vector<Tuple> live;
    live.reserve(live_rows());
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      if (deleted(i)) continue;
      remap[i] = static_cast<uint32_t>(out++);
      live.push_back(row(i));
    }
    KWSDBG_RETURN_NOT_OK(pool_->FlushAll());
    pool_->DropAll();
    for (const PageExtent& e : extents_) {
      disk_->FreePages(e.first_page, e.num_pages);
    }
    extents_.clear();
    page_to_extent_.clear();
    on_disk_bytes_ = 0;
    tail_rows_.clear();
    tail_rows_.shrink_to_fit();
    spilled_rows_ = live.size();
    KWSDBG_RETURN_NOT_OK(PackRows(&live));
  }
  deleted_.clear();
  deleted_count_ = 0;
  BumpDataEpoch();
  return remap;
}

size_t Table::EstimateBytes() const {
  // Count what the allocator actually holds: the row vector's full capacity
  // (not just its size), then each tuple under EstimateTupleBytes.
  size_t bytes = sizeof(Table) + rows_.capacity() * sizeof(Tuple) +
                 tail_rows_.capacity() * sizeof(Tuple);
  for (const Tuple& r : rows_) bytes += EstimateTupleBytes(r);
  for (const Tuple& r : tail_rows_) bytes += EstimateTupleBytes(r);
  if (spilled_) {
    bytes += extents_.capacity() * sizeof(PageExtent) +
             page_to_extent_.size() * (sizeof(uint64_t) + sizeof(size_t));
  }
  return bytes;
}

Status Table::PackRows(std::vector<Tuple>* rows) {
  const size_t page_size = disk_->page_size();
  std::string buf;
  std::vector<Tuple> chunk;
  size_t first_row = 0;
  size_t chunk_bytes = sizeof(uint32_t);  // row-count header

  auto flush_chunk = [&]() -> Status {
    if (chunk.empty()) return Status::OK();
    size_t num_pages = (chunk_bytes + page_size - 1) / page_size;
    KWSDBG_ASSIGN_OR_RETURN(uint64_t first_page,
                            disk_->AllocatePages(num_pages));
    buf.clear();
    EncodeRows(chunk, &buf);
    buf.resize(num_pages * page_size, '\0');
    KWSDBG_RETURN_NOT_OK(disk_->WritePages(first_page, num_pages, buf.data()));
    PageExtent ext;
    ext.first_page = first_page;
    ext.num_pages = static_cast<uint32_t>(num_pages);
    ext.first_row = static_cast<uint32_t>(first_row);
    ext.num_rows = static_cast<uint32_t>(chunk.size());
    page_to_extent_[first_page] = extents_.size();
    extents_.push_back(ext);
    on_disk_bytes_ += num_pages * page_size;
    first_row += chunk.size();
    chunk.clear();
    chunk_bytes = sizeof(uint32_t);
    return Status::OK();
  };

  for (Tuple& r : *rows) {
    size_t row_bytes = EncodedRowSize(r);
    if (!chunk.empty() && chunk_bytes + row_bytes > page_size) {
      KWSDBG_RETURN_NOT_OK(flush_chunk());
    }
    chunk_bytes += row_bytes;
    chunk.push_back(std::move(r));
  }
  return flush_chunk();
}

Status Table::Spill(BufferPool* pool, DiskManager* disk) {
  if (spilled_) {
    return Status::FailedPrecondition("table '" + name_ +
                                      "' is already spilled");
  }
  pool_ = pool;
  disk_ = disk;
  KWSDBG_RETURN_NOT_OK(PackRows(&rows_));
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
  if (i >= spilled_rows_) return tail_rows_[i - spilled_rows_];
  const PageExtent& ext = ExtentForRow(i);
  auto row_or = pool_->Fetch(ext.first_page, ext.num_pages,
                             i - ext.first_row, const_cast<Table*>(this));
  // at()/row() have no error channel; a failed or corrupt page read is a
  // broken invariant of our own spill file, not a recoverable condition.
  KWSDBG_CHECK(row_or.ok()) << "page read failed for table '" << name_
                            << "': " << row_or.status().ToString();
  return **row_or;
}

Status Table::WriteBack(uint64_t first_page, const std::vector<Tuple>& rows) {
  auto it = page_to_extent_.find(first_page);
  KWSDBG_CHECK(it != page_to_extent_.end())
      << "write-back for unknown extent page " << first_page << " in table '"
      << name_ << "'";
  PageExtent& ext = extents_[it->second];
  const size_t page_size = disk_->page_size();
  std::string buf;
  EncodeRows(rows, &buf);
  size_t need_pages = (buf.size() + page_size - 1) / page_size;
  if (need_pages <= ext.num_pages) {
    buf.resize(ext.num_pages * page_size, '\0');
    return disk_->WritePages(ext.first_page, ext.num_pages, buf.data());
  }
  // The mutated rows no longer fit (e.g. a longer string): move the extent
  // to a fresh run of pages and recycle the old ones.
  KWSDBG_ASSIGN_OR_RETURN(uint64_t new_first,
                          disk_->AllocatePages(need_pages));
  buf.resize(need_pages * page_size, '\0');
  KWSDBG_RETURN_NOT_OK(disk_->WritePages(new_first, need_pages, buf.data()));
  disk_->FreePages(ext.first_page, ext.num_pages);
  size_t idx = it->second;
  page_to_extent_.erase(it);
  on_disk_bytes_ += (need_pages - ext.num_pages) * page_size;
  ext.first_page = new_first;
  ext.num_pages = static_cast<uint32_t>(need_pages);
  page_to_extent_[new_first] = idx;
  return Status::OK();
}

}  // namespace kwsdbg
