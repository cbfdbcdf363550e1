#include "sql/executor.h"

#include <gtest/gtest.h>

#include "datasets/toy_product_db.h"

namespace kwsdbg {
namespace {

class ExecutorTest : public testing::Test {
 protected:
  void SetUp() override {
    auto ds = BuildToyProductDatabase();
    ASSERT_TRUE(ds.ok());
    db_ = std::move(ds->db);
    executor_ = std::make_unique<Executor>(db_.get());
  }

  JoinNetworkQuery SingleTable(const std::string& table,
                               const std::string& keyword) {
    JoinNetworkQuery q;
    q.vertices = {{table, table + "_1", keyword}};
    return q;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, SingleTableScanNoKeyword) {
  auto rs = executor_->Execute(SingleTable("Item", ""));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
  EXPECT_EQ(rs->columns.size(), 7u);
  EXPECT_EQ(rs->columns[1], "Item_1.name");
}

TEST_F(ExecutorTest, SingleTableKeywordFilter) {
  auto rs = executor_->Execute(SingleTable("Item", "candle"));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);  // items 2, 3, 4
}

TEST_F(ExecutorTest, KeywordMatchesAnyTextColumn) {
  // "saffron" appears in Item 1's name and Item 3's description.
  auto rs = executor_->Execute(SingleTable("Item", "saffron"));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);
}

TEST_F(ExecutorTest, TwoWayJoin) {
  // Scented candles: join Item with ProductType 'candle'.
  JoinNetworkQuery q;
  q.vertices = {{"ProductType", "P", "candle"}, {"Item", "I", "scented"}};
  q.joins = {{1, "p_type", 0, "id"}};
  auto rs = executor_->Execute(q);
  ASSERT_TRUE(rs.ok());
  // Items 2, 3 have "scented" in name; item 4 has it in the description.
  EXPECT_EQ(rs->rows.size(), 3u);
}

TEST_F(ExecutorTest, ThreeWayJoinNonAnswerQ1) {
  // Paper q1: candles, scented, color = saffron -> empty.
  JoinNetworkQuery q;
  q.vertices = {{"ProductType", "P", "candle"},
                {"Item", "I", "scented"},
                {"Color", "C", "saffron"}};
  q.joins = {{1, "p_type", 0, "id"}, {1, "color", 2, "id"}};
  auto rs = executor_->Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
  auto alive = executor_->IsNonEmpty(q);
  ASSERT_TRUE(alive.ok());
  EXPECT_FALSE(*alive);
}

TEST_F(ExecutorTest, ThreeWayJoinNonAnswerQ2) {
  // Paper q2: candles, scented, attribute = saffron (scent) -> empty.
  JoinNetworkQuery q;
  q.vertices = {{"ProductType", "P", "candle"},
                {"Item", "I", "scented"},
                {"Attribute", "A", "saffron"}};
  q.joins = {{1, "p_type", 0, "id"}, {1, "attr", 2, "id"}};
  auto alive = executor_->IsNonEmpty(q);
  ASSERT_TRUE(alive.ok());
  EXPECT_FALSE(*alive);
}

TEST_F(ExecutorTest, SubQueryOfQ2IsAlive) {
  // I_scented join A_saffron: item 1 (scent=saffron attribute).
  JoinNetworkQuery q;
  q.vertices = {{"Item", "I", "scented"}, {"Attribute", "A", "saffron"}};
  q.joins = {{0, "attr", 1, "id"}};
  auto rs = executor_->Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);  // Item.id == 1
}

TEST_F(ExecutorTest, NullForeignKeyNeverJoins) {
  // Item 1 has NULL color; joining Item x Color must not match it.
  JoinNetworkQuery q;
  q.vertices = {{"Item", "I", ""}, {"Color", "C", ""}};
  q.joins = {{0, "color", 1, "id"}};
  auto rs = executor_->Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);  // items 2, 3, 4 only
}

TEST_F(ExecutorTest, LimitStopsEarly) {
  auto rs = executor_->Execute(SingleTable("Item", ""), /*limit=*/2);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);
}

TEST_F(ExecutorTest, StatsCountQueries) {
  EXPECT_EQ(executor_->stats().queries_executed, 0u);
  ASSERT_TRUE(executor_->Execute(SingleTable("Item", "")).ok());
  ASSERT_TRUE(executor_->IsNonEmpty(SingleTable("Color", "red")).ok());
  EXPECT_EQ(executor_->stats().queries_executed, 2u);
  executor_->ResetStats();
  EXPECT_EQ(executor_->stats().queries_executed, 0u);
}

TEST_F(ExecutorTest, KeywordScansAreCached) {
  ASSERT_TRUE(executor_->Execute(SingleTable("Item", "candle")).ok());
  const size_t scans = executor_->stats().scan_fallbacks;
  ASSERT_TRUE(executor_->Execute(SingleTable("Item", "candle")).ok());
  EXPECT_EQ(executor_->stats().scan_fallbacks, scans);
  executor_->ClearCaches();
  ASSERT_TRUE(executor_->Execute(SingleTable("Item", "candle")).ok());
  EXPECT_EQ(executor_->stats().scan_fallbacks, scans + 1);
}

TEST_F(ExecutorTest, InvalidQueryRejected) {
  JoinNetworkQuery q;
  q.vertices = {{"NoSuch", "x", ""}};
  EXPECT_FALSE(executor_->Execute(q).ok());
}

TEST_F(ExecutorTest, ResultSetToStringMentionsRowCount) {
  auto rs = executor_->Execute(SingleTable("Color", ""));
  ASSERT_TRUE(rs.ok());
  EXPECT_NE(rs->ToString().find("(4 rows)"), std::string::npos);
}

TEST_F(ExecutorTest, CycleQuerySupported) {
  // Redundant cyclic constraint: Item joined to Color twice via the same
  // column pair; the executor must handle non-tree constraint graphs.
  JoinNetworkQuery q;
  q.vertices = {{"Item", "I", ""}, {"Color", "C", ""}};
  q.joins = {{0, "color", 1, "id"}, {1, "id", 0, "color"}};
  auto rs = executor_->Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
}

// Explain plans from the session's keyword match sets, so it must drop them
// after a write exactly as Execute does: on a database epoch bump and on a
// bump of only the written table's data epoch.
TEST_F(ExecutorTest, ExplainSeesWritesAfterEpochBumps) {
  const JoinNetworkQuery q = SingleTable("ProductType", "candle");
  auto expect_candidates = [&](size_t n) {
    auto plan = executor_->Explain(q);
    ASSERT_TRUE(plan.ok());
    std::string want = "~";
    want += std::to_string(n);
    want += " candidate rows";
    EXPECT_NE(plan->find(want), std::string::npos) << *plan;
    auto rs = executor_->Execute(q);
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->rows.size(), n);
  };
  expect_candidates(1);
  Table* product_type = db_->FindTable("ProductType");
  ASSERT_TRUE(
      product_type->AppendRow({Value(int64_t{4}), Value("tea candle")}).ok());
  db_->BumpEpoch();
  expect_candidates(2);
  ASSERT_TRUE(
      product_type->AppendRow({Value(int64_t{5}), Value("candle kit")}).ok());
  product_type->BumpDataEpoch();
  expect_candidates(3);
}

}  // namespace
}  // namespace kwsdbg
