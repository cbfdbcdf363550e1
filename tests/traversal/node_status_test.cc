#include "traversal/node_status.h"

#include <gtest/gtest.h>

#include <bit>

#include "test_util.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class NodeStatusTest : public testing::Test {
 protected:
  NodeStatusTest()
      : pl_(PrunedLattice::Build(
            *fx_.lattice,
            KeywordBinding({{"red", {fx_.color, 1}},
                            {"candle", {fx_.ptype, 1}}}))) {}

  ToyFixture fx_;
  PrunedLattice pl_;  // retained: P1-I0-C1 with 5 descendants
};

size_t CountUnknown(const NodeStatusMap& status) {
  size_t n = 0;
  for (uint64_t word : status.unknown()) n += std::popcount(word);
  return n;
}

TEST_F(NodeStatusTest, InitiallyPossiblyAlive) {
  NodeStatusMap status(pl_.num_retained());
  for (LocalId n = 0; n < pl_.num_retained(); ++n) {
    EXPECT_EQ(status.Get(n), NodeStatus::kPossiblyAlive);
    EXPECT_FALSE(status.IsKnown(n));
    EXPECT_FALSE(status.IsAlive(n));
    EXPECT_FALSE(status.IsDead(n));
  }
  EXPECT_EQ(CountUnknown(status), pl_.num_retained());
}

TEST_F(NodeStatusTest, Rule1MarksAllDescendantsAlive) {
  NodeStatusMap status(pl_.num_retained());
  LocalId mtn = pl_.mtn_locals()[0];
  size_t newly = status.MarkAliveWithDescendants(mtn, pl_);
  EXPECT_EQ(newly, 5u);
  EXPECT_TRUE(status.IsAlive(mtn));
  ForEachInRow(pl_.DescendantRow(mtn),
               [&](LocalId d) { EXPECT_TRUE(status.IsAlive(d)); });
}

TEST_F(NodeStatusTest, Rule2MarksAllAncestorsDead) {
  NodeStatusMap status(pl_.num_retained());
  // Kill a base node: both level-2 parents and the MTN die.
  LocalId i0 =
      pl_.LocalOf(fx_.lattice->FindTree(JoinTree::Single({fx_.item, 0})));
  ASSERT_NE(i0, kNotRetained);
  size_t newly = status.MarkDeadWithAncestors(i0, pl_);
  EXPECT_EQ(newly, 3u);
  EXPECT_TRUE(status.IsDead(i0));
  EXPECT_TRUE(status.IsDead(pl_.mtn_locals()[0]));
}

TEST_F(NodeStatusTest, PropagationDoesNotOverwriteKnown) {
  NodeStatusMap status(pl_.num_retained());
  LocalId mtn = pl_.mtn_locals()[0];
  LocalId i0 =
      pl_.LocalOf(fx_.lattice->FindTree(JoinTree::Single({fx_.item, 0})));
  status.Set(i0, NodeStatus::kAlive);
  // R1 from the MTN: i0 already known, so not counted as newly classified.
  size_t newly = status.MarkAliveWithDescendants(mtn, pl_);
  EXPECT_EQ(newly, 4u);
  EXPECT_TRUE(status.IsAlive(i0));
}

TEST_F(NodeStatusTest, NumUnknownTracksClassification) {
  NodeStatusMap status(pl_.num_retained());
  const size_t total = CountUnknown(status);
  status.Set(pl_.mtn_locals()[0], NodeStatus::kDead);
  EXPECT_EQ(CountUnknown(status), total - 1);
}

}  // namespace
}  // namespace kwsdbg
