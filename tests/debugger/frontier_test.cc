// The dual frontier: culprits (minimal dead sub-queries) and the GraphViz
// rendering, asserted on the paper's Example 1.
#include "debugger/frontier.h"

#include <gtest/gtest.h>

#include <bit>

#include "debugger/interactive_session.h"
#include "test_util.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class FrontierTest : public testing::Test {
 protected:
  TraversalResult RunQ(const KeywordBinding& binding, PrunedLattice* out_pl) {
    *out_pl = PrunedLattice::Build(*fx_.lattice, binding);
    Executor executor(fx_.db.get());
    QueryEvaluator evaluator(fx_.db.get(), &executor, out_pl,
                             fx_.index.get());
    auto strategy = MakeStrategy(TraversalKind::kScoreBased);
    auto result = strategy->Run(*out_pl, &evaluator);
    KWSDBG_CHECK(result.ok());
    return std::move(*result);
  }

  KeywordBinding Q1Binding() {  // saffron as a color
    return KeywordBinding({{"saffron", {fx_.color, 1}},
                           {"scented", {fx_.item, 1}},
                           {"candle", {fx_.ptype, 1}}});
  }
  KeywordBinding Q2Binding() {  // saffron as a scent
    return KeywordBinding({{"saffron", {fx_.attr, 1}},
                           {"scented", {fx_.item, 1}},
                           {"candle", {fx_.ptype, 1}}});
  }

  ToyFixture fx_;
};

TEST_F(FrontierTest, Q1CulpritIsTheColorJoin) {
  // q1's results vanish exactly at I_scented ⋈ C_saffron: there are scented
  // items and a saffron color, but no scented item with that color.
  PrunedLattice pl{PrunedLattice::Build(
      *fx_.lattice, KeywordBinding({{"x", {fx_.color, 1}}}))};
  TraversalResult r = RunQ(Q1Binding(), &pl);
  ASSERT_EQ(r.outcomes.size(), 1u);
  ASSERT_FALSE(r.outcomes[0].alive);
  ASSERT_EQ(r.outcomes[0].culprits.size(), 1u);
  const std::string name = fx_.NodeName(r.outcomes[0].culprits[0]);
  EXPECT_NE(name.find("Item[1]"), std::string::npos);
  EXPECT_NE(name.find("Color[1]"), std::string::npos);
  EXPECT_EQ(name.find("ProductType"), std::string::npos);
}

TEST_F(FrontierTest, Q2CulpritIsTheFullCombination) {
  // q2: both two-way joins are alive; only the 3-way combination fails, so
  // the MTN itself is the unique culprit.
  PrunedLattice pl{PrunedLattice::Build(
      *fx_.lattice, KeywordBinding({{"x", {fx_.color, 1}}}))};
  TraversalResult r = RunQ(Q2Binding(), &pl);
  ASSERT_EQ(r.outcomes.size(), 1u);
  ASSERT_FALSE(r.outcomes[0].alive);
  ASSERT_EQ(r.outcomes[0].culprits.size(), 1u);
  EXPECT_EQ(r.outcomes[0].culprits[0], r.outcomes[0].mtn);
}

TEST_F(FrontierTest, CulpritChildrenAreAllAlive) {
  // Structural property of minimality, on both interpretations.
  for (const KeywordBinding& binding : {Q1Binding(), Q2Binding()}) {
    PrunedLattice pl{PrunedLattice::Build(
        *fx_.lattice, KeywordBinding({{"x", {fx_.color, 1}}}))};
    TraversalResult r = RunQ(binding, &pl);
    for (const MtnOutcome& outcome : r.outcomes) {
      for (NodeId culprit : outcome.culprits) {
        // Every proper sub-network of a culprit must appear under some MPAN
        // (alive region); in particular no culprit may be a descendant of
        // another culprit.
        for (NodeId other : outcome.culprits) {
          if (other == culprit) continue;
          EXPECT_FALSE(RowHas(pl.DescendantRow(pl.LocalOf(other)),
                              pl.LocalOf(culprit)));
        }
      }
    }
  }
}

TEST_F(FrontierTest, DotRenderingMarksBothFrontiers) {
  PrunedLattice pl{PrunedLattice::Build(
      *fx_.lattice, KeywordBinding({{"x", {fx_.color, 1}}}))};
  TraversalResult r = RunQ(Q1Binding(), &pl);
  auto dot = FrontierToDot(pl, r.outcomes[0]);
  ASSERT_TRUE(dot.ok()) << dot.status().ToString();
  EXPECT_NE(dot->find("digraph frontier"), std::string::npos);
  EXPECT_NE(dot->find("color=green"), std::string::npos);
  EXPECT_NE(dot->find("color=red"), std::string::npos);
  EXPECT_NE(dot->find("doublecircle"), std::string::npos);   // MPANs
  EXPECT_NE(dot->find("doubleoctagon"), std::string::npos);  // culprits
  EXPECT_NE(dot->find("penwidth=3"), std::string::npos);     // the MTN
  // Fully classified: every node line carries a color. (Node lines are
  // newline-terminated; "];" can legitimately occur inside a label.)
  size_t nodes = 0, colored = 0;
  for (size_t pos = dot->find("[label="); pos != std::string::npos;
       pos = dot->find("[label=", pos + 1)) {
    ++nodes;
    size_t end = dot->find('\n', pos);
    std::string line = dot->substr(pos, end - pos);
    if (line.find("color=") != std::string::npos) ++colored;
  }
  EXPECT_EQ(nodes, colored);
  size_t sub = 1;
  for (uint64_t word : pl.DescendantRow(pl.LocalOf(r.outcomes[0].mtn))) {
    sub += std::popcount(word);
  }
  EXPECT_EQ(nodes, sub);
}

TEST_F(FrontierTest, DotRejectsAliveMtn) {
  PrunedLattice pl{PrunedLattice::Build(
      *fx_.lattice, KeywordBinding({{"x", {fx_.color, 1}}}))};
  KeywordBinding binding(
      {{"red", {fx_.color, 1}}, {"candle", {fx_.ptype, 1}}});
  TraversalResult r = RunQ(binding, &pl);
  ASSERT_TRUE(r.outcomes[0].alive);
  EXPECT_EQ(FrontierToDot(pl, r.outcomes[0]).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FrontierTest, InteractiveSessionReportsCulprits) {
  PrunedLattice pl = PrunedLattice::Build(*fx_.lattice, Q1Binding());
  Executor executor(fx_.db.get());
  QueryEvaluator evaluator(fx_.db.get(), &executor, &pl, fx_.index.get());
  InteractiveSession session(&pl, &evaluator);
  ASSERT_TRUE(session.FinishAutomatically().ok());
  NodeId mtn = pl.mtns()[0];
  std::vector<NodeId> culprits = session.KnownCulprits(mtn);
  ASSERT_EQ(culprits.size(), 1u);
  const std::string name = fx_.NodeName(culprits[0]);
  EXPECT_NE(name.find("Item[1]"), std::string::npos);
  EXPECT_NE(name.find("Color[1]"), std::string::npos);
}

}  // namespace
}  // namespace kwsdbg
