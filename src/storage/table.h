// Row-store table, resident or spilled to the out-of-core tier.
#ifndef KWSDBG_STORAGE_TABLE_H_
#define KWSDBG_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/schema.h"

namespace kwsdbg {

/// One contiguous run of pages holding the encoded rows
/// [first_row, first_row + num_rows) of a spilled table.
struct PageExtent {
  uint64_t first_page = 0;
  uint32_t num_pages = 0;
  uint32_t first_row = 0;
  uint32_t num_rows = 0;
};

/// Row id returned by Compact() for rows that no longer exist.
inline constexpr uint32_t kDeletedRow = 0xFFFFFFFFu;

/// A named relation: a schema plus row-major tuple storage. Row ids are the
/// positions in insertion order and are stable until Compact().
///
/// Live mutations: AppendRow grows the table. DeleteRow tombstones a row
/// and blanks every cell to NULL, so scans and filters that skip NULLs stop
/// seeing it without shifting row ids; Compact() reclaims tombstoned rows
/// and returns the old->new row-id remap. Each content mutation must be
/// followed by BumpDataEpoch() (LiveMutator does this) so epoch-stamped
/// caches over this table rebuild or patch.
///
/// A table starts resident (all rows in `rows_`). `Spill()` moves the rows
/// into page extents on a DiskManager, after which `row()`/`at()` go through
/// a BufferPool and return references into the extent's resident frame —
/// valid under the pool's LRU reference-stability contract (see
/// buffer_pool.h). A spilled table is read-only: AppendRow, DeleteRow,
/// SetValue and Compact return kFailedPrecondition and change nothing.
/// Spilled tables reject `rows()`; a failed page read aborts via
/// KWSDBG_CHECK because `at()` has no error channel.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  // Movable (builders return tables by value). The atomic epoch forces
  // these to be spelled out; moving a table concurrently with readers or a
  // mutator was never supported, so a plain load/store is correct.
  Table(Table&& other) noexcept
      : name_(std::move(other.name_)),
        schema_(std::move(other.schema_)),
        rows_(std::move(other.rows_)),
        deleted_(std::move(other.deleted_)),
        deleted_count_(other.deleted_count_),
        data_epoch_(other.data_epoch_.load(std::memory_order_relaxed)),
        catalog_index_(other.catalog_index_),
        spilled_(other.spilled_),
        pool_(other.pool_),
        spilled_rows_(other.spilled_rows_),
        on_disk_bytes_(other.on_disk_bytes_),
        extents_(std::move(other.extents_)) {}
  Table& operator=(Table&& other) noexcept {
    if (this == &other) return *this;
    name_ = std::move(other.name_);
    schema_ = std::move(other.schema_);
    rows_ = std::move(other.rows_);
    deleted_ = std::move(other.deleted_);
    deleted_count_ = other.deleted_count_;
    data_epoch_.store(other.data_epoch_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    catalog_index_ = other.catalog_index_;
    spilled_ = other.spilled_;
    pool_ = other.pool_;
    spilled_rows_ = other.spilled_rows_;
    on_disk_bytes_ = other.on_disk_bytes_;
    extents_ = std::move(other.extents_);
    return *this;
  }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return spilled_ ? spilled_rows_ : rows_.size(); }

  /// Rows minus tombstones — the count aliveness shortcuts must use.
  size_t live_rows() const { return num_rows() - deleted_count_; }
  size_t num_deleted() const { return deleted_count_; }
  bool deleted(size_t row) const {
    return row < deleted_.size() && deleted_[row];
  }
  double deleted_fraction() const {
    const size_t n = num_rows();
    return n == 0 ? 0.0 : static_cast<double>(deleted_count_) / n;
  }

  /// Appends a row. Errors if arity or any value type mismatches the schema
  /// (NULL is allowed in any column), or if the table is spilled.
  Status AppendRow(Tuple row);

  /// Appends without validation — for bulk loads from trusted generators
  /// into a resident table.
  void AppendRowUnchecked(Tuple row) {
    KWSDBG_CHECK(!spilled_) << "append to spilled table '" << name_ << "'";
    rows_.push_back(std::move(row));
  }

  /// Tombstones `row`: marks it deleted and blanks every cell to NULL, so
  /// NULL-skipping scans, filters, and index builds stop seeing it while row
  /// ids stay stable. Errors if spilled, out of range or already deleted.
  /// Callers maintaining indexes must read the row *before* deleting it.
  Status DeleteRow(size_t row);

  const Tuple& row(size_t i) const {
    if (!spilled_) return rows_[i];
    return SpilledRow(i);
  }

  /// Resident-only bulk accessor; spilled tables must be read row-by-row.
  const std::vector<Tuple>& rows() const {
    KWSDBG_CHECK(!spilled_) << "rows() on spilled table '" << name_ << "'";
    return rows_;
  }

  /// Value at (row, column); precondition: in range.
  const Value& at(size_t row, size_t col) const {
    if (!spilled_) return rows_[row][col];
    return SpilledRow(row)[col];
  }

  /// Convenience: value by column name. Errors if the column is absent.
  StatusOr<Value> ValueByName(size_t row, const std::string& col) const;

  /// Overwrites one cell (type-checked like AppendRow). Any indexes built
  /// over this table must be patched or rebuilt by the caller afterwards.
  /// Errors on spilled tables and tombstoned rows.
  Status SetValue(size_t row, size_t col, Value value);

  /// Rewrites the table without its tombstoned rows, renumbering the
  /// survivors densely. Returns the old->new row-id remap (kDeletedRow for
  /// removed rows). Errors on a spilled table. Bumps the data epoch.
  StatusOr<std::vector<uint32_t>> Compact();

  /// Estimated in-memory footprint in bytes (for reporting and for sizing
  /// memory budgets). Counts container slack (`rows_` capacity, per-row
  /// capacity) and heap string payloads; inline (SSO) strings add nothing.
  size_t EstimateBytes() const;

  /// Moves all rows into page extents on `disk`, serving reads through
  /// `pool` from now on; the table is read-only after it. No-op error if
  /// already spilled.
  Status Spill(BufferPool* pool, DiskManager* disk);

  bool spilled() const { return spilled_; }
  size_t on_disk_bytes() const { return on_disk_bytes_; }
  const std::vector<PageExtent>& extents() const { return extents_; }

  /// Monotonic per-table content version. LiveMutator bumps it after every
  /// mutation (and Compact() bumps it itself); Database::BumpEpoch() bumps
  /// every table's data epoch so legacy full invalidation still works.
  /// Epoch-stamped caches (flat indexes, executor session caches,
  /// verdict relation-set fingerprints) compare against this to invalidate
  /// only structures over the mutated table.
  uint64_t data_epoch() const {
    return data_epoch_.load(std::memory_order_acquire);
  }
  void BumpDataEpoch() { data_epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// Recovery-only: stamps the epoch captured by a checkpoint so verdicts
  /// and flat indexes keyed on (table, epoch) can never confuse pre- and
  /// post-recovery contents.
  void RestoreDataEpoch(uint64_t epoch) {
    data_epoch_.store(epoch, std::memory_order_release);
  }

  /// Position in the owning Database's creation order; assigned by
  /// Database::AddTable/CreateTable. Used as the relation bit in verdict
  /// relation masks. 0 for tables never added to a catalog.
  size_t catalog_index() const { return catalog_index_; }
  void set_catalog_index(size_t idx) { catalog_index_ = idx; }

 private:
  /// kFailedPrecondition naming `call` if the table is spilled.
  Status RefuseIfSpilled(const char* call) const;
  const Tuple& SpilledRow(size_t i) const;
  const PageExtent& ExtentForRow(size_t row) const;

  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;

  // Tombstones: deleted_[row] is true for blanked rows awaiting compaction.
  // Sized lazily (empty until the first delete).
  std::vector<bool> deleted_;
  size_t deleted_count_ = 0;

  std::atomic<uint64_t> data_epoch_{0};
  size_t catalog_index_ = 0;

  // Spill state. `extents_` is sorted by first_row for binary search.
  bool spilled_ = false;
  BufferPool* pool_ = nullptr;
  size_t spilled_rows_ = 0;
  size_t on_disk_bytes_ = 0;
  std::vector<PageExtent> extents_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_STORAGE_TABLE_H_
