#include "storage/database.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"

namespace kwsdbg {

StatusOr<Table*> Database::CreateTable(const std::string& name,
                                       Schema schema) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* ptr = table.get();
  ptr->set_catalog_index(order_.size());
  tables_.emplace(name, std::move(table));
  order_.push_back(name);
  BumpEpoch();
  return ptr;
}

Status Database::AddTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  table->set_catalog_index(order_.size());
  order_.push_back(name);
  tables_.emplace(name, std::move(table));
  BumpEpoch();
  return Status::OK();
}

StatusOr<Table*> Database::GetTable(const std::string& name) const {
  Table* t = FindTable(name);
  if (t == nullptr) return Status::NotFound("no table named '" + name + "'");
  return t;
}

Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

std::vector<std::string> Database::TableNames() const { return order_; }

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& name : order_) {
    Table* t = FindTable(name);
    KWSDBG_CHECK(t != nullptr) << "catalog order lists unknown table '"
                               << name << "'";
    n += t->num_rows();
  }
  return n;
}

size_t Database::EstimateBytes() const {
  size_t n = 0;
  for (const auto& [name, table] : tables_) n += table->EstimateBytes();
  return n;
}

Status Database::ApplyMemoryBudget(size_t budget_bytes, SpillOptions options) {
  if (budget_bytes == 0) {
    return Status::InvalidArgument("memory budget must be positive");
  }
  size_t page_size = options.page_size;
  if (page_size == 0) {
    if (const char* env = std::getenv("KWSDBG_PAGE_SIZE")) {
      page_size = ParseByteSize(env);
    }
    if (page_size == 0) page_size = DiskManager::kDefaultPageSize;
  }
  std::string spill_dir = options.spill_dir;
  if (spill_dir.empty()) {
    if (const char* env = std::getenv("KWSDBG_SPILL_DIR")) spill_dir = env;
  }

  // Largest tables first: each spill buys the most resident bytes back for
  // one table's worth of page-directory overhead.
  struct Candidate {
    Table* table;
    size_t bytes;
  };
  std::vector<Candidate> candidates;
  size_t resident = 0;
  for (const auto& name : order_) {
    Table* t = FindTable(name);
    KWSDBG_CHECK(t != nullptr) << "catalog order lists unknown table '"
                               << name << "'";
    size_t bytes = t->EstimateBytes();
    resident += bytes;
    if (!t->spilled()) candidates.push_back({t, bytes});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.bytes > b.bytes;
                   });

  // Half the budget for resident tables, half for the buffer pool, which
  // charges each frame by the bytes it holds (see buffer_pool.h). A frame
  // of an 8 KiB page of 282 DBLife relationship rows holds its image, 1.1 KB
  // of row directory and the rows its residency decoded; on perfbench's
  // `spilled` the 0.94 MB half settles at 88 frames of 10.6 KB each.
  const size_t resident_target = budget_bytes / 2;
  std::vector<Table*> to_spill;
  for (const Candidate& c : candidates) {
    if (resident <= resident_target) break;
    to_spill.push_back(c.table);
    resident -= c.bytes;
  }
  if (to_spill.empty()) return Status::OK();

  if (disk_ == nullptr) {
    KWSDBG_ASSIGN_OR_RETURN(disk_,
                            DiskManager::CreateTemp(spill_dir, page_size));
    pool_ = std::make_unique<BufferPool>(disk_.get(),
                                         budget_bytes - resident_target);
  }
  for (Table* t : to_spill) {
    KWSDBG_RETURN_NOT_OK(t->Spill(pool_.get(), disk_.get()));
    ++spilled_count_;
  }
  // Contents are unchanged, so epoch-keyed caches stay valid: no BumpEpoch.
  return Status::OK();
}

Status Database::ApplyEnvMemoryBudget() {
  const char* env = std::getenv("KWSDBG_MEMORY_BUDGET");
  if (env == nullptr || *env == '\0') return Status::OK();
  size_t budget = ParseByteSize(env);
  if (budget == 0) {
    return Status::InvalidArgument(
        std::string("unparseable KWSDBG_MEMORY_BUDGET: '") + env + "'");
  }
  return ApplyMemoryBudget(budget);
}

StorageStats Database::storage_stats() const {
  StorageStats s;
  if (pool_ != nullptr) {
    const BufferPoolStats& ps = pool_->stats();
    s.page_hits = ps.page_hits;
    s.page_evictions = ps.page_evictions;
    s.pool_frames = pool_->num_frames();
    s.pool_charged_bytes = pool_->charged_bytes();
    s.pool_budget_bytes = pool_->budget_bytes();
  }
  if (disk_ != nullptr) s.page_reads = disk_->stats().page_reads;
  s.spilled_tables = spilled_count_;
  for (const auto& [name, table] : tables_) {
    if (table->spilled()) s.spilled_bytes += table->on_disk_bytes();
  }
  return s;
}

void Database::BumpEpoch() {
  ++epoch_;
  // Legacy full invalidation: a global bump means "anything may have
  // changed", so every table's data epoch moves too and per-relation caches
  // (flat indexes, executor session caches, verdict relation fingerprints)
  // all go cold. Targeted writes should use Table::BumpDataEpoch via
  // LiveMutator instead, which leaves unrelated tables' caches warm.
  for (const auto& [name, table] : tables_) table->BumpDataEpoch();
}

}  // namespace kwsdbg
