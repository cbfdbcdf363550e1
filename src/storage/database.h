// Database catalog: the set of named tables an engine instance serves.
#ifndef KWSDBG_STORAGE_DATABASE_H_
#define KWSDBG_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/table.h"

namespace kwsdbg {

/// Options for ApplyMemoryBudget. Empty fields mean "use the default"; the
/// env knobs KWSDBG_PAGE_SIZE and KWSDBG_SPILL_DIR fill them when set.
struct SpillOptions {
  size_t page_size = 0;    ///< 0: KWSDBG_PAGE_SIZE or DiskManager default.
  std::string spill_dir;   ///< "": KWSDBG_SPILL_DIR or the system temp dir.
};

/// Snapshot of out-of-core activity, summed over the buffer pool and disk
/// manager. All zero for a fully resident database.
struct StorageStats {
  size_t page_hits = 0;
  size_t page_reads = 0;  ///< Pages read from disk (pool misses read extents).
  size_t page_evictions = 0;
  size_t spilled_tables = 0;
  size_t spilled_bytes = 0;  ///< On-disk footprint of the spilled extents.
  size_t pool_frames = 0;         ///< Resident buffer-pool frames.
  size_t pool_charged_bytes = 0;  ///< Bytes those frames hold.
  size_t pool_budget_bytes = 0;   ///< The pool's byte budget.
};

/// Owns tables and provides name lookup. Table names are case-sensitive.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates an empty table with the given schema and returns it.
  /// Errors if a table with this name already exists.
  StatusOr<Table*> CreateTable(const std::string& name, Schema schema);

  /// Adds a fully built table. Errors on duplicate name.
  Status AddTable(std::unique_ptr<Table> table);

  /// Looks up a table; errors if absent.
  StatusOr<Table*> GetTable(const std::string& name) const;

  /// Looks up a table; nullptr if absent (hot-path variant).
  Table* FindTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// Names of all tables in creation order.
  std::vector<std::string> TableNames() const;

  size_t num_tables() const { return order_.size(); }

  /// Total tuples across all tables (the paper reports 801,189 for DBLife).
  size_t TotalTuples() const;

  /// Estimated resident footprint of all tables (see Table::EstimateBytes).
  size_t EstimateBytes() const;

  /// Spills tables (largest first) to a private page file until the
  /// estimated resident footprint fits in roughly half of `budget_bytes`,
  /// giving the other half to the buffer pool as its byte budget. Row
  /// contents are unchanged, so the epoch is NOT bumped; spilled tables are
  /// read-only from then on (see table.h). Idempotent in effect but may
  /// only be called once per database (spilled tables cannot re-spill).
  Status ApplyMemoryBudget(size_t budget_bytes, SpillOptions options = {});

  /// Reads KWSDBG_MEMORY_BUDGET (e.g. "64M", "1G", or plain bytes) and
  /// applies it; no-op when the variable is unset or empty.
  Status ApplyEnvMemoryBudget();

  /// True iff any table is serving reads through the buffer pool. The
  /// executor uses this to decide when `const Value&` references must be
  /// copied before further page fetches.
  bool AnySpilled() const { return spilled_count_ > 0; }

  /// Zero-initialized stats when nothing is spilled.
  StorageStats storage_stats() const;

  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  const BufferPool* buffer_pool() const { return pool_.get(); }
  const DiskManager* disk() const { return disk_.get(); }

  /// Monotonic data-version counter. Catalog changes bump it automatically;
  /// callers that mutate table contents in place (bulk loads, what-if edits
  /// via Table::SetValue/AppendRow) must call BumpEpoch() afterwards so
  /// epoch-keyed caches (e.g. the traversal verdict cache) stop serving
  /// verdicts computed against the old contents. Spilled tables are
  /// read-only, so their pages never change and the bump leaves the buffer
  /// pool's frames resident.
  uint64_t epoch() const { return epoch_; }
  void BumpEpoch();

  /// Recovery-only: restores the catalog epoch captured by a checkpoint.
  void RestoreEpoch(uint64_t epoch) { epoch_ = epoch; }

  /// Snapshots this database into `<dir>/CHECKPOINT` (crash-consistent;
  /// see storage/checkpoint.h). `covered_seq` is the highest WAL seq the
  /// snapshot includes; writers must be quiesced for the duration.
  Status Checkpoint(const std::string& dir, uint64_t covered_seq = 0) const;

  /// Rebuilds a database from `<dir>/CHECKPOINT` and sweeps spill page
  /// files orphaned in KWSDBG_SPILL_DIR (or the system temp dir) by dead
  /// prior incarnations. kNotFound when no checkpoint exists; the caller
  /// replays any WAL suffix on top (see service/debug_service.h).
  static StatusOr<std::unique_ptr<Database>> Recover(const std::string& dir);

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<std::string> order_;
  uint64_t epoch_ = 0;

  // Out-of-core tier; null until ApplyMemoryBudget spills something.
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  size_t spilled_count_ = 0;
};

}  // namespace kwsdbg

#endif  // KWSDBG_STORAGE_DATABASE_H_
