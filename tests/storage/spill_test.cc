#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/disk_manager.h"
#include "storage/table.h"

namespace kwsdbg {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"cost", DataType::kDouble}});
}

// A byte budget no frame fits in: the pool sits at its 16-frame floor.
constexpr size_t kFloorBudget = 1;

void Fill(Table* t, size_t rows, const std::string& tag) {
  for (size_t i = 0; i < rows; ++i) {
    t->AppendRowUnchecked({Value(static_cast<int64_t>(i)),
                           Value(tag + "_" + std::to_string(i)),
                           Value(0.5 * static_cast<double>(i))});
  }
}

TEST(SpillTest, SpilledReadsMatchResidentCopy) {
  auto disk = DiskManager::CreateTemp("", 512);
  ASSERT_TRUE(disk.ok());
  BufferPool pool(disk->get(), kFloorBudget);

  Table resident("t", TestSchema());
  Fill(&resident, 300, "row");
  Table spilled("t", TestSchema());
  Fill(&spilled, 300, "row");

  ASSERT_TRUE(spilled.Spill(&pool, disk->get()).ok());
  EXPECT_TRUE(spilled.spilled());
  EXPECT_GT(spilled.on_disk_bytes(), 0u);
  EXPECT_GT(spilled.extents().size(), 1u);  // 512B pages force many extents
  ASSERT_EQ(spilled.num_rows(), resident.num_rows());

  for (size_t r = 0; r < resident.num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(spilled.at(r, c) == resident.at(r, c))
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
  EXPECT_GT(pool.stats().page_misses, 0u);
}

TEST(SpillTest, AppendToSpilledTableLandsInResidentTail) {
  auto disk = DiskManager::CreateTemp("", 512);
  ASSERT_TRUE(disk.ok());
  BufferPool pool(disk->get(), kFloorBudget);
  Table t("t", TestSchema());
  Fill(&t, 10, "r");
  ASSERT_TRUE(t.Spill(&pool, disk->get()).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value("x"), Value(1.0)}).ok());
  EXPECT_EQ(t.num_rows(), 11u);
  EXPECT_EQ(t.at(10, 1).AsString(), "x");
  // Spilled rows are still served from the extents.
  EXPECT_EQ(t.at(3, 1).AsString(), "r_3");
}

TEST(SpillTest, SetValueOnSpilledTableWritesBack) {
  auto disk = DiskManager::CreateTemp("", 512);
  ASSERT_TRUE(disk.ok());
  BufferPool pool(disk->get(), kFloorBudget);
  Table resident("t", TestSchema());
  Fill(&resident, 600, "r");
  Table t("t", TestSchema());
  Fill(&t, 600, "r");
  ASSERT_TRUE(t.Spill(&pool, disk->get()).ok());

  ASSERT_TRUE(t.SetValue(7, 1, Value(std::string("edited"))).ok());
  ASSERT_TRUE(resident.SetValue(7, 1, Value(std::string("edited"))).ok());
  EXPECT_EQ(t.at(7, 1).AsString(), "edited");

  // Force the dirty frame out and read the row back from disk.
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.DropAll();
  EXPECT_EQ(t.at(7, 1).AsString(), "edited");
  EXPECT_EQ(t.at(7, 0).AsInt(), 7);  // neighbors in the extent intact

  // A frame whose first touch is a write: none of its other rows was read,
  // so the write-back must still re-encode every one of them. An update and
  // a delete dirty it; LRU eviction (not a flush) writes it back.
  ASSERT_GT(t.extents().size(), BufferPool::kMinFrames + 1);
  const PageExtent target = t.extents()[t.extents().size() / 2];
  ASSERT_GE(target.num_rows, 3u);
  ASSERT_TRUE(t.SetValue(target.first_row + 1, 2, Value(-1.5)).ok());
  ASSERT_TRUE(resident.SetValue(target.first_row + 1, 2, Value(-1.5)).ok());
  ASSERT_TRUE(t.DeleteRow(target.first_row + 2).ok());
  ASSERT_TRUE(resident.DeleteRow(target.first_row + 2).ok());
  const size_t write_backs = pool.stats().write_backs;
  for (const PageExtent& e : t.extents()) {
    if (e.first_page != target.first_page) (void)t.at(e.first_row, 0);
  }
  EXPECT_EQ(pool.stats().write_backs, write_backs + 1);

  // Re-read every row from disk: each equals the resident copy.
  for (size_t r = 0; r < resident.num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(t.at(r, c) == resident.at(r, c))
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

TEST(SpillTest, WriteBackGrowsExtentWhenRowNoLongerFits) {
  auto disk = DiskManager::CreateTemp("", 512);
  ASSERT_TRUE(disk.ok());
  BufferPool pool(disk->get(), kFloorBudget);
  Table t("t", TestSchema());
  Fill(&t, 120, "r");
  ASSERT_TRUE(t.Spill(&pool, disk->get()).ok());

  // A value far bigger than a 512-byte page cannot be rewritten in place.
  std::string huge(4000, 'H');
  ASSERT_TRUE(t.SetValue(3, 1, Value(huge)).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.DropAll();
  EXPECT_EQ(t.at(3, 1).AsString(), huge);
  // Every other row survived the extent relocation.
  EXPECT_EQ(t.at(2, 1).AsString(), "r_2");
  EXPECT_EQ(t.at(4, 1).AsString(), "r_4");
  EXPECT_GT(disk->get()->stats().pages_freed, 0u);
}

// A flushed write-back that moves an extent frees its old first page, so
// FlushAll must not leave the frame mapped there: a table spilled later
// onto the recycled page would read the other table's row from it.
TEST(SpillTest, FlushAllLeavesNoFrameOnAPageItsWriteBackFreed) {
  auto disk = DiskManager::CreateTemp("", 512);
  ASSERT_TRUE(disk.ok());
  BufferPool pool(disk->get(), kFloorBudget);
  Table a("a", TestSchema());
  Fill(&a, 4, "a");
  ASSERT_TRUE(a.Spill(&pool, disk->get()).ok());
  ASSERT_EQ(a.extents().size(), 1u);
  ASSERT_EQ(a.extents()[0].first_page, 0u);

  const std::string grown(2000, 'H');
  ASSERT_TRUE(a.SetValue(0, 1, Value(grown)).ok());
  ASSERT_TRUE(pool.FlushAll().ok());  // no DropAll after it
  ASSERT_NE(a.extents()[0].first_page, 0u);  // moved; page 0 was freed

  Table b("b", TestSchema());
  b.AppendRowUnchecked({Value(int64_t{100}), Value("b_0"), Value(0.0)});
  ASSERT_TRUE(b.Spill(&pool, disk->get()).ok());
  ASSERT_EQ(b.extents()[0].first_page, 0u);
  EXPECT_EQ(b.at(0, 0).AsInt(), 100);
  EXPECT_EQ(b.at(0, 1).AsString(), "b_0");
  EXPECT_EQ(a.at(0, 1).AsString(), grown);
  EXPECT_EQ(a.at(3, 1).AsString(), "a_3");
}

TEST(SpillTest, EstimateBytesCountsHeapStringsAndSlack) {
  // Regression for the undercounting bug: heap string payloads and container
  // slack must show up, else memory budgets spill far too little.
  Table t("t", Schema({{"s", DataType::kString}}));
  size_t base = t.EstimateBytes();

  std::string big(1 << 12, 'a');  // 4 KiB, far beyond any SSO buffer
  t.AppendRowUnchecked({Value(big)});
  size_t with_heap = t.EstimateBytes();
  EXPECT_GE(with_heap - base, big.size());  // payload is visible

  // An SSO-sized string adds a tuple + value, but no heap payload…
  Table small("t", Schema({{"s", DataType::kString}}));
  small.AppendRowUnchecked({Value(std::string("ab"))});
  // …so the heap-string table must be estimated bigger by ≥ the payload gap.
  EXPECT_GE(with_heap - small.EstimateBytes(), big.size() - 64);

  // Known-layout fixture: N heap strings of known capacity give a floor.
  Table fixture("t", Schema({{"s", DataType::kString}}));
  constexpr size_t kRows = 50;
  std::string payload(256, 'p');
  for (size_t i = 0; i < kRows; ++i) fixture.AppendRowUnchecked({Value(payload)});
  size_t floor = sizeof(Table) + kRows * (sizeof(Tuple) + sizeof(Value) + 256);
  EXPECT_GE(fixture.EstimateBytes(), floor);

  // Monotone in rows.
  size_t prev = 0;
  Table grow("t", TestSchema());
  for (int i = 0; i < 4; ++i) {
    Fill(&grow, 25, "grow");
    size_t now = grow.EstimateBytes();
    EXPECT_GT(now, prev);
    prev = now;
  }
}

TEST(SpillTest, ApplyMemoryBudgetSpillsLargestFirst) {
  Database db;
  auto big = db.CreateTable("big", TestSchema());
  auto small = db.CreateTable("small", TestSchema());
  ASSERT_TRUE(big.ok() && small.ok());
  Fill(*big, 2000, "big");
  Fill(*small, 20, "small");

  size_t total = db.EstimateBytes();
  SpillOptions opts;
  opts.page_size = 512;
  // Budget sized so spilling the big table alone gets under budget/2.
  ASSERT_TRUE(db.ApplyMemoryBudget(total / 4, opts).ok());
  EXPECT_TRUE((*big)->spilled());
  EXPECT_FALSE((*small)->spilled());
  EXPECT_TRUE(db.AnySpilled());

  StorageStats stats = db.storage_stats();
  EXPECT_EQ(stats.spilled_tables, 1u);
  EXPECT_GT(stats.spilled_bytes, 0u);

  // Reads flow through the pool and show up in the stats.
  EXPECT_EQ((*big)->at(1999, 1).AsString(), "big_1999");
  stats = db.storage_stats();
  EXPECT_GT(stats.page_reads, 0u);
}

// StorageStats reports what the budget bought: the pool's resident frames,
// the bytes they are charged and the frame half of the budget.
TEST(SpillTest, StorageStatsShowThePoolsFramesChargeAndBudget) {
  Database db;
  auto t = db.CreateTable("t", TestSchema());
  ASSERT_TRUE(t.ok());
  Fill(*t, 3000, "s");
  const size_t budget = db.EstimateBytes() / 4;
  SpillOptions opts;
  opts.page_size = 512;
  ASSERT_TRUE(db.ApplyMemoryBudget(budget, opts).ok());
  ASSERT_TRUE((*t)->spilled());
  const BufferPool* pool = db.buffer_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->budget_bytes(), budget - budget / 2);

  StorageStats stats = db.storage_stats();
  EXPECT_EQ(stats.pool_frames, 0u);
  EXPECT_EQ(stats.pool_charged_bytes, 0u);
  EXPECT_EQ(stats.pool_budget_bytes, pool->budget_bytes());

  for (size_t r = 0; r < 3000; r += 97) {
    EXPECT_EQ((*t)->at(r, 1).AsString(), "s_" + std::to_string(r));
  }
  stats = db.storage_stats();
  EXPECT_GT(stats.pool_frames, 0u);
  EXPECT_EQ(stats.pool_frames, pool->num_frames());
  EXPECT_EQ(stats.pool_charged_bytes, pool->charged_bytes());
  EXPECT_EQ(stats.pool_charged_bytes, pool->RecountBytes());
  EXPECT_EQ(stats.pool_budget_bytes, pool->budget_bytes());
  EXPECT_TRUE(stats.pool_charged_bytes <= stats.pool_budget_bytes ||
              stats.pool_frames <= BufferPool::kMinFrames);
}

TEST(SpillTest, EnvMemoryBudgetKnobs) {
  Database db;
  auto t = db.CreateTable("t", TestSchema());
  ASSERT_TRUE(t.ok());
  Fill(*t, 2000, "env");

  ::setenv("KWSDBG_MEMORY_BUDGET", "2K", 1);
  ::setenv("KWSDBG_PAGE_SIZE", "512", 1);
  Status s = db.ApplyEnvMemoryBudget();
  ::unsetenv("KWSDBG_MEMORY_BUDGET");
  ::unsetenv("KWSDBG_PAGE_SIZE");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(db.AnySpilled());
  ASSERT_NE(db.disk(), nullptr);
  EXPECT_EQ(db.disk()->page_size(), 512u);
  EXPECT_EQ((*t)->at(0, 1).AsString(), "env_0");
}

TEST(SpillTest, EnvMemoryBudgetUnsetIsNoop) {
  Database db;
  auto t = db.CreateTable("t", TestSchema());
  ASSERT_TRUE(t.ok());
  Fill(*t, 100, "x");
  ::unsetenv("KWSDBG_MEMORY_BUDGET");
  ASSERT_TRUE(db.ApplyEnvMemoryBudget().ok());
  EXPECT_FALSE(db.AnySpilled());
}

TEST(SpillEpochTest, BumpEpochDropsFramesAndServesFreshPages) {
  Database db;
  auto t = db.CreateTable("t", TestSchema());
  ASSERT_TRUE(t.ok());
  Fill(*t, 500, "v1");
  SpillOptions opts;
  opts.page_size = 512;
  ASSERT_TRUE(db.ApplyMemoryBudget(1, opts).ok());  // spill everything
  ASSERT_TRUE((*t)->spilled());

  // Warm the pool, then mutate through the paged path.
  EXPECT_EQ((*t)->at(42, 1).AsString(), "v1_42");
  ASSERT_TRUE((*t)->SetValue(42, 1, Value(std::string("v2_42"))).ok());

  uint64_t before = db.epoch();
  db.BumpEpoch();
  EXPECT_EQ(db.epoch(), before + 1);

  // The bump flushed the dirty frame and dropped every frame: nothing stale
  // can be served, and the next read faults the fresh page image in.
  ASSERT_NE(db.buffer_pool(), nullptr);
  EXPECT_EQ(db.buffer_pool()->num_frames(), 0u);
  size_t misses = db.buffer_pool()->stats().page_misses;
  EXPECT_EQ((*t)->at(42, 1).AsString(), "v2_42");
  EXPECT_GT(db.buffer_pool()->stats().page_misses, misses);

  // Untouched rows are unchanged by the flush/drop cycle.
  EXPECT_EQ((*t)->at(41, 1).AsString(), "v1_41");
  EXPECT_EQ((*t)->at(43, 1).AsString(), "v1_43");
}

}  // namespace
}  // namespace kwsdbg
