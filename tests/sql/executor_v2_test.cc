// Executor v2 coverage: posting-list candidate sourcing vs. the scan
// fallback, full vertices next to a selective neighbor, true existence mode,
// the composite-join constraint fix, and stats accounting on every exit
// path.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/toy_product_db.h"
#include "sql/executor.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace {

JoinNetworkQuery SingleTable(const std::string& table,
                             const std::string& keyword) {
  JoinNetworkQuery q;
  q.vertices = {{table, table + "_1", keyword}};
  return q;
}

/// Toy product DB + its inverted index, with one indexed and one plain
/// (scan-only) executor over the same data.
class ExecutorV2Test : public testing::Test {
 protected:
  void SetUp() override {
    auto ds = BuildToyProductDatabase();
    ASSERT_TRUE(ds.ok());
    db_ = std::move(ds->db);
    index_ = std::make_unique<InvertedIndex>(InvertedIndex::Build(*db_));
    indexed_ = std::make_unique<Executor>(db_.get());
    indexed_->RegisterTextIndex(index_.get());
    ExecutorOptions v1;
    v1.use_text_index = false;
    plain_ = std::make_unique<Executor>(db_.get(), v1);
  }

  /// Appends a fifth, red Item: the full Item vertex then has five rows
  /// next to a one-row Color neighbor.
  void AddFifthItem() {
    Table* item = db_->FindTable("Item");
    ASSERT_NE(item, nullptr);
    ASSERT_TRUE(item->AppendRow({Value(int64_t{5}), Value("red pillar candle"),
                                 Value(int64_t{2}), Value(int64_t{1}),
                                 Value(int64_t{4}), Value(2.99),
                                 Value("no fragrance.")})
                    .ok());
  }

  /// q1 of the paper: candle x scented item x saffron color — dead.
  JoinNetworkQuery DeadThreeWay() {
    JoinNetworkQuery q;
    q.vertices = {{"ProductType", "P", "candle"},
                  {"Item", "I", "scented"},
                  {"Color", "C", "saffron"}};
    q.joins = {{1, "p_type", 0, "id"}, {1, "color", 2, "id"}};
    return q;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<InvertedIndex> index_;
  std::unique_ptr<Executor> indexed_;
  std::unique_ptr<Executor> plain_;
};

// --- composite-join (two predicates between one instance pair) fix --------

/// Two tables joined on BOTH columns; only one column pair matches. The
/// seed executor skipped every constraint to the probed vertex, so the
/// second predicate went unchecked and a dead network came back alive.
class CompositeJoinTest : public testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    auto r = db_->CreateTable(
        "R", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE((*r)->AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
    auto s = db_->CreateTable(
        "S", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    ASSERT_TRUE(s.ok());
    // S agrees with R on `a` but not on `b`.
    ASSERT_TRUE((*s)->AppendRow({Value(int64_t{1}), Value(int64_t{3})}).ok());
  }

  JoinNetworkQuery BothColumnsJoin() {
    JoinNetworkQuery q;
    q.vertices = {{"R", "r", ""}, {"S", "s", ""}};
    q.joins = {{0, "a", 1, "a"}, {0, "b", 1, "b"}};
    return q;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CompositeJoinTest, SecondPredicateOfParallelEdgeIsEnforced) {
  Executor executor(db_.get());
  auto rs = executor.Execute(BothColumnsJoin());
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty())
      << "row violating the second join predicate was emitted";
  auto alive = executor.IsNonEmpty(BothColumnsJoin());
  ASSERT_TRUE(alive.ok());
  EXPECT_FALSE(*alive);
}

TEST_F(CompositeJoinTest, FullyMatchingCompositeJoinStillJoins) {
  auto s = db_->FindTable("S");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(const_cast<Table*>(s)
                  ->AppendRow({Value(int64_t{1}), Value(int64_t{2})})
                  .ok());
  Executor executor(db_.get());
  auto rs = executor.Execute(BothColumnsJoin());
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][3].AsInt(), 2);  // s.b of the agreeing row
}

TEST_F(CompositeJoinTest, SemijoinDisabledStillEnforcesBothPredicates) {
  ExecutorOptions v1;
  v1.use_text_index = false;
  Executor executor(db_.get(), v1);
  auto rs = executor.Execute(BothColumnsJoin());
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
}

// --- posting-list candidates vs. scan fallback ----------------------------

TEST_F(ExecutorV2Test, PostingListAndScanCandidatesAgree) {
  // Every indexed term, plus proper infixes, multi-token phrases, and a
  // miss: the posting-list path must reproduce the LIKE-scan rows exactly.
  std::vector<std::string> keywords = index_->Terms();
  keywords.insert(keywords.end(),
                  {"affron", "cand", "scent", "2pck", "saffron scented",
                   "hand-made", "no_such_keyword", "oz"});
  const std::vector<std::string> tables = {"Item", "ProductType", "Color",
                                           "Attribute"};
  for (const std::string& kw : keywords) {
    for (const std::string& table : tables) {
      auto a = indexed_->Execute(SingleTable(table, kw));
      auto b = plain_->Execute(SingleTable(table, kw));
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->rows.size(), b->rows.size())
          << "keyword '" << kw << "' on " << table;
      for (size_t i = 0; i < a->rows.size(); ++i) {
        ASSERT_EQ(a->rows[i].size(), b->rows[i].size());
        for (size_t j = 0; j < a->rows[i].size(); ++j) {
          EXPECT_TRUE(a->rows[i][j] == b->rows[i][j])
              << "keyword '" << kw << "' on " << table << " row " << i;
        }
      }
    }
  }
  EXPECT_GT(indexed_->stats().posting_hits, 0u);
  EXPECT_EQ(plain_->stats().posting_hits, 0u);
}

TEST_F(ExecutorV2Test, IndexedPathNeverScansForSingleTokenKeywords) {
  for (const char* kw : {"saffron", "candle", "scented"}) {
    ASSERT_TRUE(indexed_->Execute(SingleTable("Item", kw)).ok());
  }
  EXPECT_EQ(indexed_->stats().scan_fallbacks, 0u);
  EXPECT_GT(indexed_->stats().posting_hits, 0u);
}

TEST_F(ExecutorV2Test, MultiTokenKeywordFallsBackToScan) {
  // "scented candle" cannot be a single indexed term; correctness comes
  // from the LIKE scan, and the fallback counter records it.
  auto rs = indexed_->Execute(SingleTable("Item", "scented candle"));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);  // items 2 and 3
  EXPECT_EQ(indexed_->stats().scan_fallbacks, 1u);
}

TEST_F(ExecutorV2Test, ClearCachesDropsPostingDerivedSets) {
  ASSERT_TRUE(indexed_->Execute(SingleTable("Item", "candle")).ok());
  const size_t hits = indexed_->stats().posting_hits;
  ASSERT_TRUE(indexed_->Execute(SingleTable("Item", "candle")).ok());
  EXPECT_EQ(indexed_->stats().posting_hits, hits);  // served from cache
  indexed_->ClearCaches();
  ASSERT_TRUE(indexed_->Execute(SingleTable("Item", "candle")).ok());
  EXPECT_EQ(indexed_->stats().posting_hits, hits + 1);
}

// --- full vertices next to a selective neighbor ---------------------------

TEST_F(ExecutorV2Test, SemijoinKillsDeadNetworkBeforeEnumeration) {
  AddFifthItem();
  // No item is saffron-colored.
  JoinNetworkQuery q;
  q.vertices = {{"Color", "C", "saffron"}, {"Item", "I", ""}};
  q.joins = {{1, "color", 0, "id"}};
  auto rs = indexed_->Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
  // The backtracking join proves the death: one saffron row, empty probe.
  EXPECT_EQ(indexed_->stats().rows_probed, 1u);
}

TEST_F(ExecutorV2Test, SemijoinPreservesAliveResults) {
  AddFifthItem();
  JoinNetworkQuery bound;  // both vertices keyword-bound
  bound.vertices = {{"ProductType", "P", "candle"}, {"Item", "I", "scented"}};
  bound.joins = {{1, "p_type", 0, "id"}};
  JoinNetworkQuery full_item;  // full Item next to the one red Color row
  full_item.vertices = {{"Color", "C", "red"}, {"Item", "I", ""}};
  full_item.joins = {{1, "color", 0, "id"}};
  for (const JoinNetworkQuery& q : {bound, full_item}) {
    auto a = indexed_->Execute(q);
    auto b = plain_->Execute(q);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->rows.size(), 3u);
    ASSERT_EQ(b->rows.size(), 3u);
    for (size_t i = 0; i < a->rows.size(); ++i) {
      for (size_t j = 0; j < a->rows[i].size(); ++j) {
        EXPECT_TRUE(a->rows[i][j] == b->rows[i][j]);
      }
    }
  }
}

// --- existence mode -------------------------------------------------------

TEST_F(ExecutorV2Test, ExistenceModeBuildsNoRows) {
  JoinNetworkQuery q;
  q.vertices = {{"ProductType", "P", "candle"}, {"Item", "I", ""}};
  q.joins = {{1, "p_type", 0, "id"}};
  auto alive = indexed_->IsNonEmpty(q);
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(*alive);
  EXPECT_EQ(indexed_->stats().existence_probes, 1u);
  EXPECT_EQ(indexed_->stats().rows_output, 0u);
  EXPECT_EQ(indexed_->stats().queries_executed, 1u);
}

TEST_F(ExecutorV2Test, ExistenceModeAgreesWithExecuteOnDeadNetworks) {
  auto alive = indexed_->IsNonEmpty(DeadThreeWay());
  ASSERT_TRUE(alive.ok());
  EXPECT_FALSE(*alive);
  auto plain_alive = plain_->IsNonEmpty(DeadThreeWay());
  ASSERT_TRUE(plain_alive.ok());
  EXPECT_FALSE(*plain_alive);
}

// --- edge cases: NULLs, limit, empty tables, cross products ---------------

TEST_F(ExecutorV2Test, NullJoinKeysNeverMatch) {
  // Item 1 has NULL color; both paths must exclude it.
  JoinNetworkQuery q;
  q.vertices = {{"Item", "I", ""}, {"Color", "C", ""}};
  q.joins = {{0, "color", 1, "id"}};
  auto a = indexed_->Execute(q);
  auto b = plain_->Execute(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows.size(), 3u);
  EXPECT_EQ(b->rows.size(), 3u);
}

TEST_F(ExecutorV2Test, LimitSemanticsMatchWithAndWithoutIndexProbes) {
  JoinNetworkQuery q;
  q.vertices = {{"ProductType", "P", "candle"}, {"Item", "I", ""}};
  q.joins = {{1, "p_type", 0, "id"}};
  for (size_t limit : {size_t{1}, size_t{2}, size_t{3}, size_t{0}}) {
    auto a = indexed_->Execute(q, limit);
    auto b = plain_->Execute(q, limit);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->rows.size(), b->rows.size()) << "limit " << limit;
    for (size_t i = 0; i < a->rows.size(); ++i) {
      for (size_t j = 0; j < a->rows[i].size(); ++j) {
        EXPECT_TRUE(a->rows[i][j] == b->rows[i][j]) << "limit " << limit;
      }
    }
  }
}

TEST_F(ExecutorV2Test, EmptyTableYieldsEmptyResults) {
  auto empty = db_->CreateTable(
      "Empty", Schema({{"id", DataType::kInt64}, {"t", DataType::kString}}));
  ASSERT_TRUE(empty.ok());
  // Rebuild the index so it covers the new (empty) table.
  InvertedIndex index2 = InvertedIndex::Build(*db_);
  Executor executor(db_.get());
  executor.RegisterTextIndex(&index2);
  auto rs = executor.Execute(SingleTable("Empty", ""));
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
  JoinNetworkQuery join;
  join.vertices = {{"Empty", "E", ""}, {"Item", "I", ""}};
  join.joins = {{0, "id", 1, "id"}};
  auto joined = executor.Execute(join);
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined->rows.empty());
  auto alive = executor.IsNonEmpty(join);
  ASSERT_TRUE(alive.ok());
  EXPECT_FALSE(*alive);
}

TEST_F(ExecutorV2Test, DisconnectedQueryIsCrossProduct) {
  JoinNetworkQuery q;
  q.vertices = {{"Color", "C", ""}, {"ProductType", "P", ""}};
  auto a = indexed_->Execute(q);
  auto b = plain_->Execute(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows.size(), 12u);  // 4 colors x 3 product types
  EXPECT_EQ(b->rows.size(), 12u);
  EXPECT_EQ(indexed_->stats().semijoin_eliminations, 0u);
}

TEST_F(ExecutorV2Test, BoundDisconnectedQueryStillFiltersKeywords) {
  JoinNetworkQuery q;
  q.vertices = {{"Color", "C", "red"}, {"ProductType", "P", "candle"}};
  auto a = indexed_->Execute(q);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->rows.size(), 1u);
}

// --- stats accounting on every exit path ----------------------------------

TEST_F(ExecutorV2Test, InvalidQueriesAreCountedConsistently) {
  JoinNetworkQuery bad;
  bad.vertices = {{"NoSuch", "x", ""}};
  EXPECT_FALSE(indexed_->Execute(bad).ok());
  EXPECT_EQ(indexed_->stats().queries_executed, 1u);
  EXPECT_FALSE(indexed_->IsNonEmpty(bad).ok());
  EXPECT_EQ(indexed_->stats().queries_executed, 2u);
  EXPECT_EQ(indexed_->stats().existence_probes, 1u);
  // Valid queries keep counting from there.
  ASSERT_TRUE(indexed_->Execute(SingleTable("Item", "")).ok());
  EXPECT_EQ(indexed_->stats().queries_executed, 3u);
}

// --- ResultSet rendering --------------------------------------------------

TEST(ResultSetToStringTest, SeparatorRuleMatchesHeaderWidth) {
  ResultSet rs;
  rs.columns = {"a.x", "b.name"};
  rs.rows.push_back({Value(int64_t{1}), Value("v")});
  const std::string text = rs.ToString();
  const size_t first_newline = text.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  const std::string header = text.substr(0, first_newline);
  const size_t second_newline = text.find('\n', first_newline + 1);
  ASSERT_NE(second_newline, std::string::npos);
  const std::string rule =
      text.substr(first_newline + 1, second_newline - first_newline - 1);
  EXPECT_EQ(header, "a.x | b.name");
  EXPECT_EQ(rule, std::string(header.size(), '-'));
}

TEST(ResultSetToStringTest, VeryWideHeadersCapTheRuleAt120) {
  ResultSet rs;
  rs.columns = {std::string(200, 'c')};
  const std::string text = rs.ToString();
  const size_t first_newline = text.find('\n');
  const size_t second_newline = text.find('\n', first_newline + 1);
  EXPECT_EQ(second_newline - first_newline - 1, 120u);
}

}  // namespace
}  // namespace kwsdbg
