// Join-index coverage: FlatRowIndex must return exactly the row ids a
// brute-force column scan finds (same rows, ascending) on any column,
// including NULL-riddled and duplicate-heavy ones, and its
// bucket-verification must survive forced slot collisions — distinct keys
// whose hashes land on the same bucket chain.
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/flat_row_index.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace kwsdbg {
namespace {

Table MakeTable(const std::string& name, DataType type) {
  Schema schema({{"k", type}});
  return Table(name, std::move(schema));
}

/// Rows whose cell structurally equals `v`, ascending; none for a NULL
/// probe (SQL equality never matches NULL).
std::vector<uint32_t> ScanLookup(const Table& table, const Value& v) {
  std::vector<uint32_t> rows;
  if (v.is_null()) return rows;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (table.at(row, 0) == v) rows.push_back(static_cast<uint32_t>(row));
  }
  return rows;
}

/// The bucket-array bound Build keeps: load <= 0.5 over distinct keys, in
/// a power-of-two table of at least 16 buckets of 16 bytes.
size_t MaxBucketBytes(size_t num_keys) {
  size_t capacity = 16;
  while (capacity < 2 * num_keys) capacity <<= 1;
  return 16 * capacity;
}

/// Asserts `index` == a column scan for every distinct value present plus
/// the given extra probe values (misses, NULL, wrong-typed keys).
void AssertParity(const Table& table, const FlatRowIndex& index,
                  const std::vector<Value>& probes) {
  // Each distinct value once: the scan is linear per probe.
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  std::unordered_set<Value, ValueHash> seen;
  std::vector<Value> all = probes;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (seen.insert(table.at(row, 0)).second) all.push_back(table.at(row, 0));
  }
  for (const Value& v : all) {
    const std::vector<uint32_t> expect = ScanLookup(table, v);
    const RowSpan got = index.Lookup(v);
    ASSERT_EQ(expect.size(), got.size()) << "probe " << v.ToString();
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i], got[i]) << "probe " << v.ToString() << " pos " << i;
    }
  }
  // Hashed entry point agrees with the convenience wrapper.
  for (const Value& v : all) {
    if (v.is_null()) continue;
    const RowSpan a = index.Lookup(v);
    const RowSpan b = index.LookupHashed(v.Hash64(), v);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.data, b.data);
  }
}

/// Builds an index over column 0 and asserts it is sized by its distinct
/// keys and agrees with a column scan.
void AssertParity(const Table& table, const std::vector<Value>& probes) {
  const FlatRowIndex index = FlatRowIndex::Build(table, 0);
  EXPECT_LE(index.stats().bucket_bytes, MaxBucketBytes(index.num_keys()));
  AssertParity(table, index, probes);
}

TEST(FlatRowIndexTest, EmptyTable) {
  Table t = MakeTable("empty", DataType::kInt64);
  const FlatRowIndex index = FlatRowIndex::Build(t, 0);
  EXPECT_EQ(index.num_keys(), 0u);
  EXPECT_TRUE(index.Lookup(Value(int64_t{7})).empty());
  EXPECT_TRUE(index.Lookup(Value::Null()).empty());
}

TEST(FlatRowIndexTest, AllNullColumn) {
  Table t = MakeTable("nulls", DataType::kInt64);
  for (int i = 0; i < 10; ++i) t.AppendRowUnchecked({Value::Null()});
  const FlatRowIndex index = FlatRowIndex::Build(t, 0);
  EXPECT_EQ(index.num_keys(), 0u);
  EXPECT_TRUE(index.Lookup(Value::Null()).empty());
  AssertParity(t, {Value(int64_t{0})});
}

TEST(FlatRowIndexTest, RandomIntColumnWithNulls) {
  Rng rng(20260806);
  Table t = MakeTable("ints", DataType::kInt64);
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.15)) {
      t.AppendRowUnchecked({Value::Null()});
    } else {
      // Narrow key range -> duplicate-heavy runs.
      t.AppendRowUnchecked(
          {Value(static_cast<int64_t>(rng.Uniform(300)) - 50)});
    }
  }
  AssertParity(t, {Value(int64_t{-12345}), Value::Null(), Value(1.0),
                   Value("1")});
}

TEST(FlatRowIndexTest, DuplicateHeavySingleKey) {
  Table t = MakeTable("dup", DataType::kInt64);
  for (int i = 0; i < 1000; ++i) {
    t.AppendRowUnchecked({Value(int64_t{42})});
  }
  const FlatRowIndex index = FlatRowIndex::Build(t, 0);
  EXPECT_EQ(index.num_keys(), 1u);
  EXPECT_EQ(index.stats().max_run_length, 1000u);
  const RowSpan run = index.Lookup(Value(int64_t{42}));
  ASSERT_EQ(run.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(run[i], i);
  AssertParity(t, {Value(int64_t{41})});
}

TEST(FlatRowIndexTest, RandomDoubleColumn) {
  Rng rng(7);
  Table t = MakeTable("doubles", DataType::kDouble);
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.1)) {
      t.AppendRowUnchecked({Value::Null()});
    } else {
      t.AppendRowUnchecked({Value(static_cast<double>(rng.Uniform(100)) / 4)});
    }
  }
  // Signed zeros are structurally equal, so they must share one run.
  t.AppendRowUnchecked({Value(0.0)});
  t.AppendRowUnchecked({Value(-0.0)});
  const FlatRowIndex index = FlatRowIndex::Build(t, 0);
  const RowSpan zero = index.Lookup(Value(0.0));
  const RowSpan neg_zero = index.Lookup(Value(-0.0));
  EXPECT_EQ(zero.data, neg_zero.data);
  EXPECT_GE(zero.size(), 2u);
  AssertParity(t, {Value(-1.5), Value(int64_t{0})});
}

TEST(FlatRowIndexTest, RandomStringColumn) {
  Rng rng(99);
  Table t = MakeTable("strings", DataType::kString);
  const char* pool[] = {"saffron", "candle", "scented", "azure", "soap",
                        "lavender", "crimson", "diffuser", ""};
  for (int i = 0; i < 3000; ++i) {
    if (rng.Bernoulli(0.1)) {
      t.AppendRowUnchecked({Value::Null()});
    } else if (rng.Bernoulli(0.3)) {
      t.AppendRowUnchecked({Value(pool[rng.Uniform(9)])});
    } else {
      std::string s = "key-" + std::to_string(rng.Uniform(400));
      t.AppendRowUnchecked({Value(std::move(s))});
    }
  }
  AssertParity(t, {Value("missing"), Value("saffro"), Value("saffron ")});
}

// Forced slot collisions: with `num_keys * 2` buckets rounded up to a power
// of two, seeding thousands of distinct string keys guarantees many keys
// share `hash & mask` chains, so every lookup must displace through
// occupied buckets and verify against the column to find its own run.
TEST(FlatRowIndexTest, SeededStringKeysCollideInBuckets) {
  Table t = MakeTable("collide", DataType::kString);
  const int kKeys = 4096;
  for (int i = 0; i < kKeys; ++i) {
    t.AppendRowUnchecked({Value("seed-" + std::to_string(i))});
    // Every key twice, interleaved, so runs are non-trivial as well.
    t.AppendRowUnchecked({Value("seed-" + std::to_string(i))});
  }
  const FlatRowIndex index = FlatRowIndex::Build(t, 0);
  EXPECT_EQ(index.num_keys(), static_cast<size_t>(kKeys));
  EXPECT_EQ(index.stats().max_run_length, 2u);
  // Occupancy 4096 keys in 8192 buckets: the birthday bound makes slot
  // collisions a statistical certainty; verify every key still resolves.
  AssertParity(t, {Value("seed--1"), Value("seed-4096")});
}

TEST(FlatRowIndexTest, StatsReflectShape) {
  Table t = MakeTable("stats", DataType::kInt64);
  for (int i = 0; i < 100; ++i) {
    t.AppendRowUnchecked({Value(static_cast<int64_t>(i % 10))});
  }
  const FlatRowIndex index = FlatRowIndex::Build(t, 0);
  EXPECT_EQ(index.stats().distinct_keys, 10u);
  EXPECT_EQ(index.stats().max_run_length, 10u);
  EXPECT_EQ(index.stats().arena_bytes, 100 * sizeof(uint32_t));
  // Sized by the 10 distinct keys, not the 100 rows.
  EXPECT_EQ(index.capacity(), 32u);
  EXPECT_EQ(index.stats().bucket_bytes, index.capacity() * 16);
}

// A duplicate-heavy column gets a table sized to its few keys (load 0.5
// after Build), so the first new keys must grow it; lookups stay equal to a
// column scan through every growth step.
TEST(FlatRowIndexTest, ParityAfterApplyInsertGrowsSizedTable) {
  Rng rng(20261018);
  Table t = MakeTable("grow", DataType::kInt64);
  for (int i = 0; i < 800; ++i) {
    t.AppendRowUnchecked({Value(static_cast<int64_t>(i % 8))});
  }
  FlatRowIndex index = FlatRowIndex::Build(t, 0);
  EXPECT_EQ(index.num_keys(), 8u);
  EXPECT_EQ(index.capacity(), 16u);
  for (int i = 0; i < 300; ++i) {
    const Value v = rng.Bernoulli(0.1)
                        ? Value::Null()
                        : Value(static_cast<int64_t>(rng.Uniform(200)));
    t.AppendRowUnchecked({v});
    index.ApplyInsert(static_cast<uint32_t>(t.num_rows() - 1), v);
    if (i % 50 == 0) AssertParity(t, index, {Value(int64_t{-1})});
  }
  EXPECT_GT(index.capacity(), 16u);
  AssertParity(t, index, {Value(int64_t{-1}), Value(int64_t{500})});
}

// The int64 fast path matches on the hash alone, so it is exercised where
// a wrong match would show. Value::Hash64 folds the type tag (the variant
// index, in the top byte) into the raw bits before one bijective mix, so the
// int64 whose bits are 5.0's with the int and double tags swapped hashes
// exactly like 5.0: a full 64-bit collision across types, which only
// verification can tell apart. Every int64 key shares that hash's bucket
// chain. A 5.0 and a "5" cell inserted into the int column turn the fast
// path off; every probe must return exactly the structurally equal rows on
// both sides of that switch.
TEST(FlatRowIndexTest, IntKeysSharingBucketsMatchExactlyAcrossTypes) {
  uint64_t five_bits = 0;
  const double five = 5.0;
  std::memcpy(&five_bits, &five, sizeof(five_bits));
  const uint64_t int_tag = uint64_t{1} << 56, double_tag = uint64_t{2} << 56;
  const int64_t twin = static_cast<int64_t>(five_bits ^ int_tag ^ double_tag);
  ASSERT_EQ(Value(twin).Hash64(), Value(5.0).Hash64());
  const uint64_t mask = 63;  // covers every capacity the indexes take here
  const uint64_t slot = Value(twin).Hash64() & mask;
  std::vector<int64_t> keys = {twin};
  for (int64_t k = 0; keys.size() < 8; ++k) {
    if ((Value(k).Hash64() & mask) == slot) keys.push_back(k);
  }
  keys.push_back(5);
  Table t = MakeTable("shared_chain", DataType::kInt64);
  for (int rep = 0; rep < 3; ++rep) {
    for (int64_t k : keys) t.AppendRowUnchecked({Value(k)});
  }
  FlatRowIndex index = FlatRowIndex::Build(t, 0);
  ASSERT_EQ(index.num_keys(), keys.size());
  ASSERT_LE(index.capacity(), mask + 1);
  const std::vector<Value> probes = {Value(int64_t{5}), Value(5.0),
                                     Value("5"), Value(twin),
                                     Value(int64_t{-1})};
  EXPECT_TRUE(index.int_keys());
  AssertParity(t, index, probes);

  t.AppendRowUnchecked({Value(5.0)});
  index.ApplyInsert(static_cast<uint32_t>(t.num_rows() - 1), Value(5.0));
  EXPECT_FALSE(index.int_keys());
  AssertParity(t, index, probes);

  t.AppendRowUnchecked({Value("5")});
  index.ApplyInsert(static_cast<uint32_t>(t.num_rows() - 1), Value("5"));
  ASSERT_LE(index.capacity(), mask + 1);
  AssertParity(t, index, probes);

  // Built with the double first, its bucket precedes the twin's in the
  // chain, so an int64 probe for the twin must verify its way past it.
  Table mixed = MakeTable("double_first", DataType::kInt64);
  mixed.AppendRowUnchecked({Value(5.0)});
  for (int64_t k : keys) mixed.AppendRowUnchecked({Value(k)});
  const FlatRowIndex built = FlatRowIndex::Build(mixed, 0);
  EXPECT_FALSE(built.int_keys());
  AssertParity(mixed, built, probes);
}

TEST(FlatRowIndexTest, ManagerCachesAndAccumulates) {
  Table t1 = MakeTable("t1", DataType::kInt64);
  Table t2 = MakeTable("t2", DataType::kInt64);
  for (int i = 0; i < 50; ++i) {
    t1.AppendRowUnchecked({Value(static_cast<int64_t>(i))});
    t2.AppendRowUnchecked({Value(static_cast<int64_t>(i / 2))});
  }
  FlatRowIndexManager manager;
  const FlatRowIndex& a = manager.GetOrBuild(&t1, 0);
  const FlatRowIndex& b = manager.GetOrBuild(&t1, 0);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(manager.num_indexes(), 1u);
  manager.GetOrBuild(&t2, 0);
  EXPECT_EQ(manager.num_indexes(), 2u);
  manager.Clear();
  EXPECT_EQ(manager.num_indexes(), 0u);
}

}  // namespace
}  // namespace kwsdbg
