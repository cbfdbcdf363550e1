#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/disk_manager.h"
#include "storage/table.h"
#include "text/inverted_index.h"

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

// Spilled pages never change, so an epoch bump moves the epochs and leaves
// the pool alone: the warmed frames stay resident and keep serving the same
// rows as hits.
TEST(SpillEpochTest, BumpEpochKeepsFramesAndServesTheSameRows) {
  Database db;
  auto t = db.CreateTable("t", TestSchema());
  ASSERT_TRUE(t.ok());
  Fill(*t, 500, "v1");
  SpillOptions opts;
  opts.page_size = 512;
  ASSERT_TRUE(db.ApplyMemoryBudget(1, opts).ok());  // spill everything
  ASSERT_TRUE((*t)->spilled());
  const BufferPool* pool = db.buffer_pool();
  ASSERT_NE(pool, nullptr);

  EXPECT_EQ((*t)->at(42, 1).AsString(), "v1_42");  // warm one frame
  const BufferPoolStats warm = pool->stats();
  const size_t frames = pool->num_frames();
  const size_t charged = pool->charged_bytes();
  const uint64_t epoch = db.epoch();
  const uint64_t data_epoch = (*t)->data_epoch();

  db.BumpEpoch();
  EXPECT_EQ(db.epoch(), epoch + 1);
  EXPECT_GT((*t)->data_epoch(), data_epoch);
  EXPECT_EQ(pool->num_frames(), frames);
  EXPECT_EQ(pool->charged_bytes(), charged);
  EXPECT_EQ(pool->stats().page_hits, warm.page_hits);
  EXPECT_EQ(pool->stats().page_misses, warm.page_misses);
  EXPECT_EQ(pool->stats().page_evictions, warm.page_evictions);

  // The same row, and its neighbours in the frame, come back as hits.
  EXPECT_EQ((*t)->at(42, 1).AsString(), "v1_42");
  EXPECT_EQ((*t)->at(41, 1).AsString(), "v1_41");
  EXPECT_EQ((*t)->at(43, 1).AsString(), "v1_43");
  EXPECT_EQ(pool->stats().page_misses, warm.page_misses);
  EXPECT_EQ(pool->stats().page_hits, warm.page_hits + 3);
}

// What a refused write must leave as it was, read without touching the
// pool: the storage counters, the pool's charge and the row count.
struct Untouched {
  StorageStats stats;
  size_t num_rows = 0;
};

Untouched Observe(const Database& db, const Table& t) {
  return {db.storage_stats(), t.num_rows()};
}

void ExpectUntouched(const Untouched& before, const Database& db,
                     const Table& t) {
  const StorageStats now = db.storage_stats();
  EXPECT_EQ(now.page_hits, before.stats.page_hits);
  EXPECT_EQ(now.page_reads, before.stats.page_reads);
  EXPECT_EQ(now.page_evictions, before.stats.page_evictions);
  EXPECT_EQ(now.spilled_tables, before.stats.spilled_tables);
  EXPECT_EQ(now.spilled_bytes, before.stats.spilled_bytes);
  EXPECT_EQ(now.pool_frames, before.stats.pool_frames);
  EXPECT_EQ(now.pool_charged_bytes, before.stats.pool_charged_bytes);
  EXPECT_EQ(now.pool_budget_bytes, before.stats.pool_budget_bytes);
  EXPECT_EQ(db.buffer_pool()->charged_bytes(), before.stats.pool_charged_bytes);
  EXPECT_EQ(t.num_rows(), before.num_rows);
}

// Every row of `t` equals `want`, and every posting list of `index` equals
// its copy in `want_postings` (in Terms() order).
void ExpectContents(const Table& t, const std::vector<Tuple>& want,
                    const InvertedIndex& index,
                    const std::vector<std::vector<Posting>>& want_postings) {
  ASSERT_EQ(t.num_rows(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(t.row(r), want[r]) << "row " << r;
  }
  const std::vector<std::string> terms = index.Terms();
  ASSERT_EQ(terms.size(), want_postings.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(index.PostingsFor(terms[i]), want_postings[i]) << terms[i];
  }
}

// A spilled database with one tombstone (so Compact would have work) and
// its text index spilled too, plus copies of every row and posting list.
struct SpilledFixture {
  Database db;
  Table* t = nullptr;
  InvertedIndex index;
  std::vector<Tuple> rows;
  std::vector<std::vector<Posting>> postings;

  SpilledFixture() {
    t = *db.CreateTable("t", TestSchema());
    Fill(t, 300, "r");
    EXPECT_TRUE(t->DeleteRow(3).ok());
    index = InvertedIndex::Build(db);
    for (const std::string& term : index.Terms()) {
      postings.push_back(index.PostingsFor(term));
    }
    rows = t->rows();
    SpillOptions opts;
    opts.page_size = 512;
    EXPECT_TRUE(db.ApplyMemoryBudget(1, opts).ok());
    EXPECT_TRUE(t->spilled());
    EXPECT_TRUE(index.SpillToDisk("", /*cache_lists=*/4).ok());
    (void)t->at(7, 1);  // a resident frame whose charge must not move
  }
};

// A spilled table is read-only: each writer returns kFailedPrecondition
// before it reads a page or changes a row, a posting or a counter.
TEST(SpillTest, SpilledTableRefusesEveryWrite) {
  SpilledFixture fx;
  Table& t = *fx.t;
  const std::vector<std::pair<const char*, std::function<Status()>>> calls = {
      {"AppendRow",
       [&] {
         return t.AppendRow({Value(int64_t{300}), Value("x"), Value(0.0)});
       }},
      {"DeleteRow", [&] { return t.DeleteRow(7); }},
      {"SetValue", [&] { return t.SetValue(7, 1, Value("edited")); }},
      {"Compact", [&] { return t.Compact().status(); }},
  };
  for (const auto& [name, call] : calls) {
    SCOPED_TRACE(name);
    const Untouched before = Observe(fx.db, t);
    EXPECT_EQ(call().code(), StatusCode::kFailedPrecondition);
    ExpectUntouched(before, fx.db, t);
    EXPECT_EQ(t.num_deleted(), 1u);
    ExpectContents(t, fx.rows, fx.index, fx.postings);
  }
}

// A spilled index is read-only: each maintenance call returns
// kFailedPrecondition before it reads a row or changes a posting, the
// profile or a counter.
TEST(SpillTest, SpilledIndexRefusesEveryWrite) {
  SpilledFixture fx;
  InvertedIndex& index = fx.index;
  const Table& t = *fx.t;
  const size_t num_postings = index.num_postings();
  const uint64_t version = index.version();
  const std::vector<std::pair<const char*, std::function<Status()>>> calls = {
      {"ApplyRowInsert", [&] { return index.ApplyRowInsert(t, 7).status(); }},
      {"ApplyRowDelete", [&] { return index.ApplyRowDelete(t, 7).status(); }},
      {"ApplyCellUpdate",
       [&] { return index.ApplyCellUpdate(t, 7, 1, Value("old")).status(); }},
      {"RemapRows",
       [&] { return index.RemapRows("t", std::vector<uint32_t>(300, 0)); }},
  };
  for (const auto& [name, call] : calls) {
    SCOPED_TRACE(name);
    const Untouched before = Observe(fx.db, t);
    const size_t posting_reads = index.io_stats().posting_reads;
    EXPECT_EQ(call().code(), StatusCode::kFailedPrecondition);
    ExpectUntouched(before, fx.db, t);
    EXPECT_EQ(index.io_stats().posting_reads, posting_reads);
    EXPECT_EQ(index.num_postings(), num_postings);
    EXPECT_EQ(index.version(), version);
    EXPECT_EQ(index.RowFrequency("r", "t"), 299u);
    ExpectContents(t, fx.rows, index, fx.postings);
  }
}

}  // namespace
}  // namespace kwsdbg
