// Constraint push-down (paper Sec. 5): NodeFilter restricts the Phase 3
// search space and MPAN semantics become "maximal alive among the
// constrained candidates".
#include <gtest/gtest.h>

#include "baselines/return_everything.h"
#include "test_util.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class NodeFilterTest : public testing::Test {
 protected:
  ToyFixture fx_;

  KeywordBinding Q1Binding() {
    return KeywordBinding({{"saffron", {fx_.color, 1}},
                           {"scented", {fx_.item, 1}},
                           {"candle", {fx_.ptype, 1}}});
  }
};

TEST_F(NodeFilterTest, MinLevelShrinksSearchSpace) {
  PrunedLattice unfiltered = PrunedLattice::Build(*fx_.lattice, Q1Binding());
  PrunedLattice filtered = PrunedLattice::Build(*fx_.lattice, Q1Binding(),
                                                filters::MinLevel(2));
  EXPECT_LT(filtered.retained().size(), unfiltered.retained().size());
  for (NodeId id : filtered.retained()) {
    EXPECT_GE(fx_.lattice->node(id).level, 2u);
  }
  // MTNs themselves are always retained.
  EXPECT_EQ(filtered.mtns(), unfiltered.mtns());
}

TEST_F(NodeFilterTest, MinLevelChangesMpansToConstrainedMaxima) {
  // Unconstrained q1 MPANs: {P1 ⋈ I1, C1}. With min level 2, the level-1
  // node C1 is not a candidate; no level-2 sub-query containing C1 is alive
  // (I1 ⋈ C1 is dead, P-C are not adjacent), so only P1 ⋈ I1 remains.
  PrunedLattice pl = PrunedLattice::Build(*fx_.lattice, Q1Binding(),
                                          filters::MinLevel(2));
  Executor executor(fx_.db.get());
  QueryEvaluator evaluator(fx_.db.get(), &executor, &pl, fx_.index.get());
  auto strategy = MakeStrategy(TraversalKind::kScoreBased);
  auto result = strategy->Run(pl, &evaluator);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_FALSE(result->outcomes[0].alive);
  ASSERT_EQ(result->outcomes[0].mpans.size(), 1u);
  const std::string name = fx_.NodeName(result->outcomes[0].mpans[0]);
  EXPECT_NE(name.find("ProductType[1]"), std::string::npos);
  EXPECT_NE(name.find("Item[1]"), std::string::npos);
}

TEST_F(NodeFilterTest, ContainsRelationFilter) {
  PrunedLattice pl = PrunedLattice::Build(
      *fx_.lattice, Q1Binding(), filters::ContainsRelation(fx_.item));
  for (NodeId id : pl.retained()) {
    if (pl.IsMtn(id)) continue;  // MTNs bypass the filter by design
    bool has_item = false;
    for (const RelationCopy& v : fx_.lattice->node(id).tree.vertices()) {
      if (v.relation == fx_.item) has_item = true;
    }
    EXPECT_TRUE(has_item) << fx_.NodeName(id);
  }
  // C1 alone (no Item) is excluded, so q1's MPAN set loses it.
  Executor executor(fx_.db.get());
  QueryEvaluator evaluator(fx_.db.get(), &executor, &pl, fx_.index.get());
  auto strategy = MakeStrategy(TraversalKind::kBottomUpWithReuse);
  auto result = strategy->Run(pl, &evaluator);
  ASSERT_TRUE(result.ok());
  for (NodeId m : result->outcomes[0].mpans) {
    EXPECT_EQ(fx_.NodeName(m).find("Color[1]") == std::string::npos ||
                  fx_.NodeName(m).find("Item") != std::string::npos,
              true);
  }
}

TEST_F(NodeFilterTest, MinKeywordsFilter) {
  KeywordBinding binding = Q1Binding();
  PrunedLattice pl = PrunedLattice::Build(
      *fx_.lattice, binding, filters::MinKeywords(1, &binding));
  for (NodeId id : pl.retained()) {
    if (pl.IsMtn(id)) continue;
    size_t bound = 0;
    for (const RelationCopy& v : fx_.lattice->node(id).tree.vertices()) {
      if (v.copy != 0) ++bound;
    }
    EXPECT_GE(bound, 1u) << fx_.NodeName(id);
  }
}

TEST_F(NodeFilterTest, AndCombinator) {
  KeywordBinding binding = Q1Binding();
  NodeFilter combined = filters::And(filters::MinLevel(2),
                                     filters::ContainsRelation(fx_.item));
  PrunedLattice pl = PrunedLattice::Build(*fx_.lattice, binding, combined);
  for (NodeId id : pl.retained()) {
    if (pl.IsMtn(id)) continue;
    EXPECT_GE(fx_.lattice->node(id).level, 2u);
  }
}

TEST_F(NodeFilterTest, AllStrategiesAgreeUnderFilter) {
  PrunedLattice pl = PrunedLattice::Build(*fx_.lattice, Q1Binding(),
                                          filters::MinLevel(2));
  auto oracle = MakeReturnEverything();
  Executor oracle_exec(fx_.db.get());
  QueryEvaluator oracle_eval(fx_.db.get(), &oracle_exec, &pl,
                             fx_.index.get());
  auto expected = oracle->Run(pl, &oracle_eval);
  ASSERT_TRUE(expected.ok());
  for (TraversalKind kind : AllTraversalKinds()) {
    auto strategy = MakeStrategy(kind);
    Executor executor(fx_.db.get());
    QueryEvaluator evaluator(fx_.db.get(), &executor, &pl, fx_.index.get());
    auto got = strategy->Run(pl, &evaluator);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(testutil::Summarize(*got), testutil::Summarize(*expected))
        << strategy->name();
  }
}

TEST_F(NodeFilterTest, FilterReducesSqlWork) {
  auto strategy = MakeStrategy(TraversalKind::kBottomUpWithReuse);
  PrunedLattice full = PrunedLattice::Build(*fx_.lattice, Q1Binding());
  PrunedLattice small = PrunedLattice::Build(*fx_.lattice, Q1Binding(),
                                             filters::MinLevel(3));
  Executor e1(fx_.db.get()), e2(fx_.db.get());
  QueryEvaluator ev1(fx_.db.get(), &e1, &full, fx_.index.get());
  QueryEvaluator ev2(fx_.db.get(), &e2, &small, fx_.index.get());
  auto r1 = strategy->Run(full, &ev1);
  auto r2 = strategy->Run(small, &ev2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LE(r2->stats.sql_queries, r1->stats.sql_queries);
}

}  // namespace
}  // namespace kwsdbg
