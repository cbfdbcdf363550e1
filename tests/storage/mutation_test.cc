// Live-write semantics at the storage layer: tombstone deletes, compaction
// remaps, FlatRowIndex in-place patches (Lookup-parity with a from-scratch
// rebuild), and the LiveMutator end-to-end path including rollback and
// auto-compaction.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "service/live_mutator.h"
#include "sql/flat_row_index.h"
#include "storage/database.h"
#include "storage/table.h"
#include "text/inverted_index.h"
#include "traversal/verdict_cache.h"

namespace kwsdbg {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"cost", DataType::kDouble}});
}

void Fill(Table* t, size_t n, const std::string& prefix) {
  for (size_t i = 0; i < n; ++i) {
    t->AppendRowUnchecked({Value(static_cast<int64_t>(i)),
                           Value(prefix + "_" + std::to_string(i)),
                           Value(static_cast<double>(i) * 1.5)});
  }
}

// ---- Table tombstones, compaction ----

TEST(MutationTest, DeleteRowTombstonesAndBlanksCells) {
  Table t("t", TestSchema());
  Fill(&t, 5, "r");
  ASSERT_TRUE(t.DeleteRow(2).ok());

  EXPECT_TRUE(t.deleted(2));
  EXPECT_FALSE(t.deleted(1));
  EXPECT_EQ(t.num_rows(), 5u);       // row ids stay stable
  EXPECT_EQ(t.live_rows(), 4u);
  EXPECT_EQ(t.num_deleted(), 1u);
  EXPECT_DOUBLE_EQ(t.deleted_fraction(), 0.2);
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(t.at(2, c).is_null());
  EXPECT_EQ(t.at(3, 1).AsString(), "r_3");  // neighbors untouched
}

TEST(MutationTest, DeleteRowRejectsDoubleDeleteAndOutOfRange) {
  Table t("t", TestSchema());
  Fill(&t, 3, "r");
  ASSERT_TRUE(t.DeleteRow(1).ok());
  EXPECT_FALSE(t.DeleteRow(1).ok());  // already tombstoned
  EXPECT_FALSE(t.DeleteRow(3).ok());  // out of range
  EXPECT_EQ(t.num_deleted(), 1u);
}

TEST(MutationTest, SetValueRejectsTombstonedRow) {
  Table t("t", TestSchema());
  Fill(&t, 3, "r");
  ASSERT_TRUE(t.DeleteRow(0).ok());
  EXPECT_FALSE(t.SetValue(0, 1, Value(std::string("ghost"))).ok());
}

TEST(MutationTest, AppendRowValidatesSchema) {
  Table t("t", TestSchema());
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1})}).ok());  // arity
  EXPECT_FALSE(
      t.AppendRow({Value("x"), Value("y"), Value(1.0)}).ok());  // type
  EXPECT_TRUE(
      t.AppendRow({Value(int64_t{1}), Value(), Value(2.0)}).ok());  // NULL ok
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(MutationTest, CompactRenumbersSurvivorsAndReturnsRemap) {
  Table t("t", TestSchema());
  Fill(&t, 6, "r");
  ASSERT_TRUE(t.DeleteRow(1).ok());
  ASSERT_TRUE(t.DeleteRow(4).ok());
  const uint64_t epoch_before = t.data_epoch();

  auto remap = t.Compact();
  ASSERT_TRUE(remap.ok());
  const std::vector<uint32_t> expected = {0, kDeletedRow, 1,
                                          2, kDeletedRow, 3};
  EXPECT_EQ(*remap, expected);
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_deleted(), 0u);
  EXPECT_EQ(t.at(1, 1).AsString(), "r_2");  // survivors dense, in order
  EXPECT_EQ(t.at(3, 1).AsString(), "r_5");
  EXPECT_GT(t.data_epoch(), epoch_before);  // compaction bumps the epoch
}

// ---- FlatRowIndex patch parity ----

// Lookup-parity oracle: a patched index must answer every probe exactly
// like an index built from scratch over the current table state. Layout
// (bucket order, arena packing) may legitimately differ.
void ExpectLookupParity(const FlatRowIndex& patched, const Table& t,
                        size_t column) {
  const FlatRowIndex fresh = FlatRowIndex::Build(t, column);
  ASSERT_EQ(patched.num_keys(), fresh.num_keys());
  for (size_t row = 0; row < t.num_rows(); ++row) {
    const Value& v = t.at(row, column);
    if (v.is_null()) continue;
    const RowSpan a = patched.Lookup(v);
    const RowSpan b = fresh.Lookup(v);
    ASSERT_EQ(a.size(), b.size()) << "row " << row;
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(MutationTest, FlatIndexApplyInsertMatchesRebuild) {
  Table t("t", TestSchema());
  Fill(&t, 40, "r");
  FlatRowIndex idx = FlatRowIndex::Build(t, 1);

  // Duplicate an existing key (run extension) and add fresh keys (possibly
  // forcing a rehash as distinct keys grow past the initial capacity).
  for (int i = 0; i < 100; ++i) {
    const bool dup = (i % 3 == 0);
    const std::string name =
        dup ? "r_5" : "new_" + std::to_string(i);
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(40 + i)),
                             Value(name), Value(0.0)})
                    .ok());
    idx.ApplyInsert(static_cast<uint32_t>(t.num_rows() - 1),
                    t.at(t.num_rows() - 1, 1));
  }
  ExpectLookupParity(idx, t, 1);
}

TEST(MutationTest, FlatIndexApplyDeleteMatchesRebuildEvenAfterBlanking) {
  Table t("t", TestSchema());
  Fill(&t, 30, "r");
  // Give one key a long run to exercise the in-run binary search.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(100 + i)),
                             Value(std::string("dup")), Value(0.0)})
                    .ok());
  }
  FlatRowIndex idx = FlatRowIndex::Build(t, 1);

  // Delete from the middle of the dup run, from a singleton run, and a
  // never-indexed value. The cells are blanked FIRST, as DeleteRow does —
  // ApplyDelete must locate the row from (old_value, row) alone.
  const Value old_dup = t.at(34, 1);
  ASSERT_TRUE(t.DeleteRow(34).ok());
  EXPECT_TRUE(idx.ApplyDelete(34, old_dup));
  const Value old_single = t.at(3, 1);
  ASSERT_TRUE(t.DeleteRow(3).ok());
  EXPECT_TRUE(idx.ApplyDelete(3, old_single));
  EXPECT_FALSE(idx.ApplyDelete(3, Value(std::string("absent"))));

  // Emptied singleton runs leave a bucket tombstone; probes for other keys
  // must still traverse the chain.
  ExpectLookupParity(idx, t, 1);
}

TEST(MutationTest, FlatIndexChurnCompactsArenaAndStaysExact) {
  Table t("t", TestSchema());
  Fill(&t, 16, "r");
  FlatRowIndex idx = FlatRowIndex::Build(t, 1);

  // Churn: grow runs (relocations leave arena garbage), then delete enough
  // to cross the compaction threshold, repeatedly.
  uint32_t next_id = 16;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 8; ++i) {
      const std::string name = "r_" + std::to_string(i);  // extend old runs
      ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(next_id)),
                               Value(name), Value(0.0)})
                      .ok());
      idx.ApplyInsert(next_id, t.at(next_id, 1));
      ++next_id;
    }
    for (uint32_t row = 0; row < t.num_rows(); row += 7) {
      if (t.deleted(row)) continue;
      const Value old = t.at(row, 1);
      ASSERT_TRUE(t.DeleteRow(row).ok());
      EXPECT_TRUE(idx.ApplyDelete(row, old));
    }
  }
  ExpectLookupParity(idx, t, 1);
}

// ---- LiveMutator end-to-end ----

struct MutatorFixture {
  Database db;
  Table* products = nullptr;
  Table* reviews = nullptr;
  InvertedIndex index;
  RelationFences fences;
  VerdictCache cache;
  SharedFlatRowIndexManager tier;
  LiveMutator mutator;

  explicit MutatorFixture(MutatorOptions options = {})
      : fences(2),
        mutator(&db, &index, &fences, options) {
    auto p = db.CreateTable(
        "products", Schema({{"id", DataType::kInt64},
                            {"title", DataType::kString}}));
    auto r = db.CreateTable(
        "reviews", Schema({{"id", DataType::kInt64},
                           {"body", DataType::kString}}));
    products = *p;
    reviews = *r;
    for (int i = 0; i < 8; ++i) {
      products->AppendRowUnchecked(
          {Value(static_cast<int64_t>(i)),
           Value("widget alpha" + std::to_string(i))});
      reviews->AppendRowUnchecked(
          {Value(static_cast<int64_t>(i)),
           Value("great beta" + std::to_string(i))});
    }
    index = InvertedIndex::Build(db);
    mutator.RegisterVerdictCache(&cache);
    mutator.RegisterFlatTier(&tier);
  }
};

TEST(MutationTest, LiveMutatorInsertPatchesEverything) {
  MutatorFixture fx;
  const uint64_t epoch_before = fx.products->data_epoch();
  // Warm a flat index and seed verdicts over both relations.
  fx.tier.GetOrBuild(fx.products, 1, fx.db.epoch());
  const uint64_t bit_p = RelationFences::BitFor(fx.products->catalog_index());
  const uint64_t bit_r = RelationFences::BitFor(fx.reviews->catalog_index());
  fx.cache.Insert("P", "sig", 0, 0, true, bit_p);
  fx.cache.Insert("R", "sig", 0, 0, true, bit_r);

  ASSERT_TRUE(fx.mutator
                  .Apply(Mutation::Insert(
                      "products",
                      {Value(int64_t{99}), Value(std::string("widget gamma"))}))
                  .ok());

  EXPECT_EQ(fx.products->num_rows(), 9u);
  EXPECT_GT(fx.products->data_epoch(), epoch_before);
  EXPECT_TRUE(fx.index.TableContains("gamma", "products"));
  // Partial invalidation: the products verdict died, the reviews one lives.
  EXPECT_FALSE(fx.cache.Lookup("P", "sig", 0, 0).has_value());
  EXPECT_TRUE(fx.cache.Lookup("R", "sig", 0, 0).has_value());
  // The flat index was patched in place and restamped, not dropped.
  EXPECT_EQ(fx.tier.num_indexes(), 1u);
  const FlatRowIndex& idx =
      fx.tier.GetOrBuild(fx.products, 1, fx.db.epoch());
  EXPECT_EQ(idx.Lookup(Value(std::string("widget gamma"))).size(), 1u);

  const MutationStats& stats = fx.mutator.stats();
  EXPECT_EQ(stats.mutations_applied.load(), 1u);
  EXPECT_GT(stats.index_patches.load(), 0u);
  EXPECT_EQ(stats.partial_evictions.load(), 1u);
}

TEST(MutationTest, LiveMutatorDeleteAndUpdateKeepIndexParity) {
  MutatorFixture fx;
  ASSERT_TRUE(fx.mutator.Apply(Mutation::Delete("reviews", 2)).ok());
  ASSERT_TRUE(fx.mutator
                  .Apply(Mutation::Update("reviews", 3, 1,
                                          Value(std::string("delta body"))))
                  .ok());

  EXPECT_TRUE(fx.reviews->deleted(2));
  EXPECT_FALSE(fx.index.TableContains("beta2", "reviews"));
  EXPECT_FALSE(fx.index.TableContains("beta3", "reviews"));
  EXPECT_TRUE(fx.index.TableContains("delta", "reviews"));

  // Rebuild-vs-incremental parity over the whole database.
  const InvertedIndex fresh = InvertedIndex::Build(fx.db);
  EXPECT_EQ(fx.index.num_postings(), fresh.num_postings());
  for (const std::string& term : fresh.Terms()) {
    EXPECT_EQ(fx.index.RowFrequency(term, "reviews"),
              fresh.RowFrequency(term, "reviews"))
        << term;
  }
}

TEST(MutationTest, LiveMutatorRejectsBadMutationsUnchanged) {
  MutatorFixture fx;
  const uint64_t epoch = fx.products->data_epoch();

  EXPECT_FALSE(fx.mutator.Apply(Mutation::Delete("products", 99)).ok());
  EXPECT_FALSE(fx.mutator.Apply(Mutation::Delete("nosuch", 0)).ok());
  EXPECT_FALSE(
      fx.mutator.Apply(Mutation::Insert("products", {Value(int64_t{1})}))
          .ok());
  EXPECT_FALSE(fx.mutator
                   .Apply(Mutation::Update("products", 0, 1,
                                           Value(int64_t{5})))  // type clash
                   .ok());

  EXPECT_EQ(fx.products->num_rows(), 8u);
  EXPECT_EQ(fx.products->data_epoch(), epoch);  // nothing changed
  EXPECT_EQ(fx.mutator.stats().mutations_applied.load(), 0u);
}

// Over a spilled index the inserted row lands in the resident table, the
// index refuses the patch although every term of the row is in its
// dictionary, and the mutator's rollback tombstones the row: the failure
// is typed and the index is as it was.
TEST(MutationTest, LiveMutatorInsertOverSpilledIndexTombstonesRow) {
  MutatorFixture fx;
  ASSERT_TRUE(fx.index.SpillToDisk("", /*cache_lists=*/4).ok());
  const std::vector<std::string> terms = fx.index.Terms();
  const size_t postings = fx.index.num_postings();
  const std::vector<Posting> widget = fx.index.PostingsFor("widget");
  const std::vector<Posting> alpha3 = fx.index.PostingsFor("alpha3");

  const Status s = fx.mutator.Apply(Mutation::Insert(
      "products", {Value(int64_t{99}), Value(std::string("widget alpha3"))}));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();

  EXPECT_EQ(fx.products->num_rows(), 9u);
  EXPECT_TRUE(fx.products->deleted(8));
  EXPECT_TRUE(fx.products->at(8, 1).is_null());
  EXPECT_EQ(fx.index.Terms(), terms);
  EXPECT_EQ(fx.index.num_postings(), postings);
  EXPECT_EQ(fx.index.PostingsFor("widget"), widget);
  EXPECT_EQ(fx.index.PostingsFor("alpha3"), alpha3);
  EXPECT_EQ(fx.mutator.stats().mutations_applied.load(), 0u);
}

// A write to a spilled table is refused before anything changes: a delete
// must not patch the (resident) index and then find the table read-only.
TEST(MutationTest, LiveMutatorRefusesWritesToASpilledTable) {
  MutatorFixture fx;
  SpillOptions opts;
  opts.page_size = 512;
  ASSERT_TRUE(fx.db.ApplyMemoryBudget(1, opts).ok());
  ASSERT_TRUE(fx.products->spilled());
  const size_t postings = fx.index.num_postings();
  const uint64_t epoch = fx.products->data_epoch();

  for (const Mutation& m :
       {Mutation::Delete("products", 2),
        Mutation::Update("products", 2, 1, Value(std::string("widget nu"))),
        Mutation::Insert("products", {Value(int64_t{99}),
                                      Value(std::string("widget xi"))})}) {
    EXPECT_EQ(fx.mutator.Apply(m).code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(fx.products->num_rows(), 8u);
  EXPECT_FALSE(fx.products->deleted(2));
  EXPECT_EQ(fx.products->at(2, 1).AsString(), "widget alpha2");
  EXPECT_EQ(fx.products->data_epoch(), epoch);
  EXPECT_EQ(fx.index.num_postings(), postings);
  EXPECT_TRUE(fx.index.TableContains("alpha2", "products"));
  EXPECT_EQ(fx.mutator.stats().mutations_applied.load(), 0u);
}

TEST(MutationTest, LiveMutatorFaultPointFailsBeforeMutating) {
  MutatorFixture fx;
  ScopedFaultInjection faults("storage.mutation.apply=unavailable,times=1");

  Status s = fx.mutator.Apply(Mutation::Delete("products", 0));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fx.products->deleted(0));  // fault fired before any change
  EXPECT_TRUE(fx.index.TableContains("alpha0", "products"));
  EXPECT_EQ(fx.mutator.stats().mutations_applied.load(), 0u);

  // The schedule is exhausted; the same mutation now applies.
  ASSERT_TRUE(fx.mutator.Apply(Mutation::Delete("products", 0)).ok());
  EXPECT_FALSE(fx.index.TableContains("alpha0", "products"));
}

TEST(MutationTest, LiveMutatorAutoCompactsAndRemapsPostings) {
  MutatorOptions options;
  options.auto_compact_fraction = 0.3;
  MutatorFixture fx(options);

  // Delete 3 of 8 rows: the third delete crosses the 30% threshold.
  ASSERT_TRUE(fx.mutator.Apply(Mutation::Delete("products", 0)).ok());
  ASSERT_TRUE(fx.mutator.Apply(Mutation::Delete("products", 4)).ok());
  EXPECT_EQ(fx.mutator.stats().compactions.load(), 0u);
  ASSERT_TRUE(fx.mutator.Apply(Mutation::Delete("products", 6)).ok());

  EXPECT_EQ(fx.mutator.stats().compactions.load(), 1u);
  EXPECT_EQ(fx.products->num_rows(), 5u);
  EXPECT_EQ(fx.products->num_deleted(), 0u);

  // Postings were remapped to the post-compaction row ids: parity holds.
  const InvertedIndex fresh = InvertedIndex::Build(fx.db);
  for (const std::string& term : fresh.Terms()) {
    const std::vector<Posting>& live = fx.index.PostingsFor(term);
    const std::vector<Posting>& want = fresh.PostingsFor(term);
    ASSERT_EQ(live.size(), want.size()) << term;
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].row, want[i].row) << term;
    }
  }
}

}  // namespace
}  // namespace kwsdbg
