#include <gtest/gtest.h>

#include "baselines/return_everything.h"
#include "baselines/return_nothing.h"
#include "test_util.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class BaselinesTest : public testing::Test {
 protected:
  ToyFixture fx_;
};

TEST_F(BaselinesTest, ReturnEverythingEvaluatesEveryRetainedNode) {
  KeywordBinding binding({{"saffron", {fx_.color, 1}},
                          {"scented", {fx_.item, 1}},
                          {"candle", {fx_.ptype, 1}}});
  PrunedLattice pl = PrunedLattice::Build(*fx_.lattice, binding);
  Executor executor(fx_.db.get());
  QueryEvaluator evaluator(fx_.db.get(), &executor, &pl, fx_.index.get());
  auto re = MakeReturnEverything();
  auto result = re->Run(pl, &evaluator);
  ASSERT_TRUE(result.ok());
  // Retained = MTN + 5 descendants; 3 are base nodes (no SQL), 3 SQL.
  EXPECT_EQ(result->stats.sql_queries, 3u);
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_FALSE(result->outcomes[0].alive);
  EXPECT_EQ(result->outcomes[0].mpans.size(), 2u);
}

TEST_F(BaselinesTest, ReturnNothingSubmitsAllSubsets) {
  ReturnNothingBaseline rn(fx_.db.get(), fx_.lattice.get(), fx_.index.get());
  auto result = rn.Run("saffron scented candle");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->submissions, 7u);  // 2^3 - 1
  EXPECT_GT(result->cns_evaluated, 0u);
  EXPECT_GT(result->alive_cns, 0u);  // sub-queries do return results
  EXPECT_GE(result->total_millis, 0.0);
}

TEST_F(BaselinesTest, ReturnNothingSingleKeyword) {
  ReturnNothingBaseline rn(fx_.db.get(), fx_.lattice.get(), fx_.index.get());
  auto result = rn.Run("vanilla");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->submissions, 1u);
  // "vanilla" occurs in Item and in Attribute: two interpretations, one
  // single-table CN each, both executed fully for display.
  EXPECT_EQ(result->sql_queries, 2u);
  EXPECT_EQ(result->rows_retrieved, 2u);
}

TEST_F(BaselinesTest, ReturnNothingIsIncomplete) {
  // RN can only surface CNs of keyword subsets, and every CN leaf is bound
  // to a keyword. For "red candle" (red -> Color, candle -> ProductType)
  // the MTN P1 - I0 - C1 routes through the free Item copy, so its
  // sub-lattice contains free-leaf sub-queries (e.g. P1 ⋈ I0, "candles of
  // any kind in stock") that no RN submission can ever return.
  KeywordBinding binding(
      {{"red", {fx_.color, 1}}, {"candle", {fx_.ptype, 1}}});
  PrunedLattice pl = PrunedLattice::Build(*fx_.lattice, binding);
  size_t free_leaf_nodes = 0;
  for (NodeId id : pl.retained()) {
    const JoinTree& t = pl.lattice().node(id).tree;
    for (size_t leaf : t.LeafIndices()) {
      if (t.vertex(leaf).copy == 0) {
        ++free_leaf_nodes;
        break;
      }
    }
  }
  EXPECT_GT(free_leaf_nodes, 0u);
  // RN still works (it just cannot see those sub-queries).
  ReturnNothingBaseline rn(fx_.db.get(), fx_.lattice.get(), fx_.index.get());
  auto result = rn.Run("red candle");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->submissions, 3u);
}

TEST_F(BaselinesTest, ReturnNothingRejectsEmptyQuery) {
  ReturnNothingBaseline rn(fx_.db.get(), fx_.lattice.get(), fx_.index.get());
  EXPECT_FALSE(rn.Run("").ok());
}

TEST_F(BaselinesTest, ReturnNothingMissingKeywordSubsetsStillCounted) {
  ReturnNothingBaseline rn(fx_.db.get(), fx_.lattice.get(), fx_.index.get());
  auto result = rn.Run("saffron qqqq");
  ASSERT_TRUE(result.ok());
  // 3 submissions; the ones containing 'qqqq' bind nothing.
  EXPECT_EQ(result->submissions, 3u);
}

}  // namespace
}  // namespace kwsdbg
