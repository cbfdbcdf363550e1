// Rebuild-vs-incremental parity oracle for the inverted index: after any
// sequence of ApplyRowInsert / ApplyRowDelete / ApplyCellUpdate (and
// RemapRows after compaction), the incrementally maintained index must
// answer exactly like InvertedIndex::Build over the current database. A
// spilled index refuses these calls (tests/storage/spill_test.cc).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/database.h"
#include "text/inverted_index.h"
#include "text/posting.h"

namespace kwsdbg {
namespace {

// Two-table catalog with overlapping vocabulary so per-table profile counts
// and table masks are exercised, not just posting lists. Built in place —
// Database is pinned (non-movable).
void BuildDb(Database* out) {
  Database& db = *out;
  Table* a = *db.CreateTable(
      "articles", Schema({{"id", DataType::kInt64},
                          {"title", DataType::kString},
                          {"body", DataType::kString}}));
  Table* c = *db.CreateTable(
      "comments", Schema({{"id", DataType::kInt64},
                          {"text", DataType::kString}}));
  const char* titles[] = {"keyword search systems", "join network debugging",
                          "lattice traversal", "keyword debugging"};
  const char* bodies[] = {"non answer provenance", "candidate network pruning",
                          "search lattice", "provenance pruning"};
  for (int i = 0; i < 4; ++i) {
    a->AppendRowUnchecked({Value(static_cast<int64_t>(i)), Value(titles[i]),
                           Value(bodies[i])});
  }
  const char* comments[] = {"great keyword paper", "pruning is subtle",
                            "lattice walk"};
  for (int i = 0; i < 3; ++i) {
    c->AppendRowUnchecked({Value(static_cast<int64_t>(i)), Value(comments[i])});
  }

}

// Structural parity: every observable of the live index equals a
// from-scratch rebuild.
void ExpectStructuralParity(const InvertedIndex& live, const Database& db) {
  const InvertedIndex fresh = InvertedIndex::Build(db);
  ASSERT_EQ(live.Terms(), fresh.Terms());
  EXPECT_EQ(live.num_postings(), fresh.num_postings());
  for (const std::string& term : fresh.Terms()) {
    const std::vector<Posting>& got = live.PostingsFor(term);
    const std::vector<Posting>& want = fresh.PostingsFor(term);
    ASSERT_EQ(got.size(), want.size()) << "term '" << term << "'";
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "term '" << term << "' posting " << i;
    }
    for (const std::string& table : db.TableNames()) {
      EXPECT_EQ(live.RowFrequency(term, table), fresh.RowFrequency(term, table))
          << "term '" << term << "' in " << table;
      EXPECT_EQ(live.TableContains(term, table),
                fresh.TableContains(term, table))
          << "term '" << term << "' in " << table;
    }
  }
}

TEST(IncrementalIndexTest, InsertWithExistingVocabularyKeepsParity) {
  Database db;
  BuildDb(&db);
  InvertedIndex index = InvertedIndex::Build(db);
  const uint64_t version = index.version();
  Table* a = db.FindTable("articles");

  ASSERT_TRUE(a->AppendRow({Value(int64_t{4}), Value("keyword lattice"),
                            Value("pruning search")})
                  .ok());
  auto patches = index.ApplyRowInsert(*a, 4);
  ASSERT_TRUE(patches.ok());
  EXPECT_EQ(*patches, 4u);
  EXPECT_EQ(index.version(), version);  // vocabulary unchanged: no refinalize
  ExpectStructuralParity(index, db);
}

TEST(IncrementalIndexTest, VocabularyNewTermRefinalizesDictionary) {
  Database db;
  BuildDb(&db);
  InvertedIndex index = InvertedIndex::Build(db);
  const uint64_t version = index.version();
  Table* c = db.FindTable("comments");

  ASSERT_TRUE(
      c->AppendRow({Value(int64_t{3}), Value("zyzzyva keyword")}).ok());
  ASSERT_TRUE(index.ApplyRowInsert(*c, 3).ok());
  EXPECT_GT(index.version(), version);  // term ids shifted
  EXPECT_TRUE(index.Contains("zyzzyva"));
  EXPECT_TRUE(index.TableContains("zyzzyva", "comments"));
  ExpectStructuralParity(index, db);
}

TEST(IncrementalIndexTest, DeleteBeforeBlankingKeepsParity) {
  Database db;
  BuildDb(&db);
  InvertedIndex index = InvertedIndex::Build(db);
  Table* a = db.FindTable("articles");

  // Row 0 is the only holder of "systems"; "keyword" survives in rows 3/4
  // and in comments. The patch runs BEFORE DeleteRow blanks the cells.
  ASSERT_TRUE(index.ApplyRowDelete(*a, 0).ok());
  ASSERT_TRUE(a->DeleteRow(0).ok());

  EXPECT_FALSE(index.Contains("systems"));
  EXPECT_TRUE(index.TableContains("keyword", "articles"));
  ExpectStructuralParity(index, db);

  // Deleting every remaining "keyword" row of articles clears the table
  // mask but keeps the term alive through comments.
  ASSERT_TRUE(index.ApplyRowDelete(*a, 3).ok());
  ASSERT_TRUE(a->DeleteRow(3).ok());
  EXPECT_FALSE(index.TableContains("keyword", "articles"));
  EXPECT_TRUE(index.TableContains("keyword", "comments"));
  ExpectStructuralParity(index, db);
}

TEST(IncrementalIndexTest, CellUpdateKeepsParity) {
  Database db;
  BuildDb(&db);
  InvertedIndex index = InvertedIndex::Build(db);
  Table* a = db.FindTable("articles");

  // Overlap between old and new terms ("lattice" stays, "traversal" goes,
  // "descent" arrives) exercises the no-op, remove, and add paths at once.
  const Value old_value = a->at(2, 1);
  ASSERT_TRUE(a->SetValue(2, 1, Value(std::string("lattice descent"))).ok());
  ASSERT_TRUE(index.ApplyCellUpdate(*a, 2, 1, old_value).ok());

  EXPECT_FALSE(index.TableContains("traversal", "articles"));
  EXPECT_TRUE(index.Contains("descent"));
  ExpectStructuralParity(index, db);

  // Update to NULL removes every old term of the cell.
  const Value old_body = a->at(2, 2);
  ASSERT_TRUE(a->SetValue(2, 2, Value()).ok());
  ASSERT_TRUE(index.ApplyCellUpdate(*a, 2, 2, old_body).ok());
  ExpectStructuralParity(index, db);
}

TEST(IncrementalIndexTest, RemapRowsAfterCompactKeepsParity) {
  Database db;
  BuildDb(&db);
  InvertedIndex index = InvertedIndex::Build(db);
  Table* a = db.FindTable("articles");

  ASSERT_TRUE(index.ApplyRowDelete(*a, 1).ok());
  ASSERT_TRUE(a->DeleteRow(1).ok());
  auto remap = a->Compact();
  ASSERT_TRUE(remap.ok());
  ASSERT_TRUE(index.RemapRows("articles", *remap).ok());

  ExpectStructuralParity(index, db);
}

}  // namespace
}  // namespace kwsdbg
