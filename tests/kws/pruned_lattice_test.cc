#include "kws/pruned_lattice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "datasets/toy_product_db.h"
#include "lattice/canonical_label.h"
#include "lattice/lattice_generator.h"

namespace kwsdbg {
namespace {

// The paper's Fig. 6 setting: "red candle" with red -> Color[1] and
// candle -> ProductType[1] on the toy schema.
class PrunedLatticeTest : public testing::Test {
 protected:
  void SetUp() override {
    auto ds = BuildToyProductDatabase();
    ASSERT_TRUE(ds.ok());
    db_ = std::move(ds->db);
    schema_ = std::move(ds->schema);
    LatticeConfig config;
    config.max_joins = 2;
    config.num_keyword_copies = 2;
    auto lattice = LatticeGenerator::Generate(schema_, config);
    ASSERT_TRUE(lattice.ok());
    lattice_ = std::move(*lattice);
    color_ = *schema_.RelationIdByName("Color");
    ptype_ = *schema_.RelationIdByName("ProductType");
    item_ = *schema_.RelationIdByName("Item");
    attr_ = *schema_.RelationIdByName("Attribute");
  }

  KeywordBinding RedCandle() {
    return KeywordBinding(
        {{"red", {color_, 1}}, {"candle", {ptype_, 1}}});
  }

  std::unique_ptr<Database> db_;
  SchemaGraph schema_;
  std::unique_ptr<Lattice> lattice_;
  RelationId color_ = 0, ptype_ = 0, item_ = 0, attr_ = 0;
};

TEST_F(PrunedLatticeTest, SurvivorsHaveOnlyBoundOrFreeCopies) {
  // Build counts the survivors from the copy-set index; count the nodes
  // whose every copy is bound or free directly.
  KeywordBinding binding = RedCandle();
  size_t survivors = 0;
  for (NodeId id = 0; id < lattice_->num_nodes(); ++id) {
    bool ok = true;
    for (const RelationCopy& v : lattice_->node(id).tree.vertices()) {
      ok = ok && (v.copy == 0 || binding.IsBound(v));
    }
    survivors += ok;
  }
  EXPECT_GT(survivors, 0u);
  EXPECT_LT(survivors, lattice_->num_nodes());
  EXPECT_EQ(PrunedLattice::Build(*lattice_, binding).stats().surviving_nodes,
            survivors);
}

TEST_F(PrunedLatticeTest, Fig6SurvivorCount) {
  PrunedLattice pl = PrunedLattice::Build(*lattice_, RedCandle());
  // Allowed vertices: {I0, P0, C0, A0, P1, C1}; trees are Item-centered.
  // Level 1: 6; level 2 (I0 + one neighbor): 5; level 3 (I0 + two allowed
  // neighbors on distinct FK edges): C(5,2) = 10 minus the same-edge pairs
  // {P0,P1} and {C0,C1} (Item's FK column can join only one instance) = 8.
  EXPECT_EQ(pl.stats().surviving_nodes, 19u);
}

TEST_F(PrunedLatticeTest, SingleMtnIsP1I0C1) {
  PrunedLattice pl = PrunedLattice::Build(*lattice_, RedCandle());
  ASSERT_EQ(pl.mtns().size(), 1u);
  const JoinTree& t = lattice_->node(pl.mtns()[0]).tree;
  EXPECT_EQ(t.num_vertices(), 3u);
  EXPECT_TRUE(t.ContainsVertex({ptype_, 1}));
  EXPECT_TRUE(t.ContainsVertex({item_, 0}));
  EXPECT_TRUE(t.ContainsVertex({color_, 1}));
}

TEST_F(PrunedLatticeTest, TotalityChecks) {
  PrunedLattice pl = PrunedLattice::Build(*lattice_, RedCandle());
  NodeId mtn = pl.mtns()[0];
  EXPECT_TRUE(pl.IsTotal(mtn));
  for (NodeId c : lattice_->node(mtn).children) {
    EXPECT_FALSE(pl.IsTotal(c));
  }
}

size_t RowSize(std::span<const uint64_t> row) {
  size_t n = 0;
  for (uint64_t word : row) n += std::popcount(word);
  return n;
}

size_t RangeSize(std::pair<LocalId, LocalId> range) {
  return range.second - range.first;
}

TEST_F(PrunedLatticeTest, RetainedIsMtnPlusDescendants) {
  PrunedLattice pl = PrunedLattice::Build(*lattice_, RedCandle());
  NodeId mtn = pl.mtns()[0];
  // Desc(P1-I0-C1) = {P1-I0, I0-C1, P1, I0, C1}.
  EXPECT_EQ(RowSize(pl.DescendantRow(pl.LocalOf(mtn))), 5u);
  EXPECT_EQ(pl.retained().size(), 6u);
  EXPECT_TRUE(pl.IsRetained(mtn));
  EXPECT_TRUE(pl.IsMtn(mtn));
  ForEachInRow(pl.DescendantRow(pl.LocalOf(mtn)), [&](LocalId d) {
    EXPECT_TRUE(pl.IsRetained(pl.retained()[d]));
    EXPECT_FALSE(pl.IsMtn(pl.retained()[d]));
  });
}

TEST_F(PrunedLatticeTest, RetainedChildrenParentsRestricted) {
  PrunedLattice pl = PrunedLattice::Build(*lattice_, RedCandle());
  LocalId mtn = pl.mtn_locals()[0];
  EXPECT_EQ(pl.Children(mtn).size(), 2u);  // P1-I0 and I0-C1
  // I0 sits under both level-2 nodes.
  NodeId i0 = lattice_->FindTree(JoinTree::Single({item_, 0}));
  ASSERT_NE(i0, kInvalidNode);
  size_t parents = 0;
  for (LocalId l = 0; l < pl.num_retained(); ++l) {
    parents += std::ranges::count(pl.Children(l), pl.LocalOf(i0));
  }
  EXPECT_EQ(parents, 2u);
  EXPECT_EQ(RowSize(pl.AncestorRow(pl.LocalOf(i0))), 3u);  // level 2 + MTN
}

TEST_F(PrunedLatticeTest, RetainedAtLevelAndMaxLevel) {
  PrunedLattice pl = PrunedLattice::Build(*lattice_, RedCandle());
  EXPECT_EQ(pl.MaxRetainedLevel(), 3u);
  EXPECT_EQ(RangeSize(pl.LevelRange(1)), 3u);  // P1, I0, C1
  EXPECT_EQ(RangeSize(pl.LevelRange(2)), 2u);
  EXPECT_EQ(RangeSize(pl.LevelRange(3)), 1u);
  EXPECT_EQ(RangeSize(pl.LevelRange(9)), 0u);
}

TEST_F(PrunedLatticeTest, StatsAreConsistent) {
  PrunedLattice pl = PrunedLattice::Build(*lattice_, RedCandle());
  const PruneStats& s = pl.stats();
  EXPECT_EQ(s.lattice_nodes, lattice_->num_nodes());
  EXPECT_EQ(s.surviving_nodes, 19u);  // Fig6SurvivorCount
  EXPECT_EQ(s.num_mtns, 1u);
  EXPECT_EQ(s.retained_nodes, 6u);
  EXPECT_EQ(s.mtn_desc_total, 5u);
  EXPECT_EQ(s.mtn_desc_unique, 5u);
}

TEST_F(PrunedLatticeTest, ThreeKeywordInterpretationQ1) {
  // Example 1, q1 interpretation: saffron->Color, scented->Item,
  // candle->ProductType. The only MTN is P1 - I1 - C1.
  KeywordBinding binding({{"saffron", {color_, 1}},
                          {"scented", {item_, 1}},
                          {"candle", {ptype_, 1}}});
  PrunedLattice pl = PrunedLattice::Build(*lattice_, binding);
  ASSERT_EQ(pl.mtns().size(), 1u);
  const JoinTree& t = lattice_->node(pl.mtns()[0]).tree;
  EXPECT_TRUE(t.ContainsVertex({color_, 1}));
  EXPECT_TRUE(t.ContainsVertex({item_, 1}));
  EXPECT_TRUE(t.ContainsVertex({ptype_, 1}));
}

TEST_F(PrunedLatticeTest, MtnsAreConsistentAcrossLatticeLevels) {
  // An MTN found in a level-L lattice is also an MTN in any deeper lattice:
  // minimality depends only on the node's children, which are identical.
  // (This is why Table 3's per-level MTN counts are cumulative counts of
  // the same underlying candidate networks.)
  LatticeConfig big_config;
  big_config.max_joins = 3;
  big_config.num_keyword_copies = 2;
  auto big = LatticeGenerator::Generate(schema_, big_config);
  ASSERT_TRUE(big.ok());
  for (const KeywordBinding& binding :
       {RedCandle(),
        KeywordBinding({{"saffron", {color_, 1}},
                        {"scented", {item_, 1}},
                        {"candle", {ptype_, 1}}})}) {
    PrunedLattice small_pl = PrunedLattice::Build(*lattice_, binding);
    PrunedLattice big_pl = PrunedLattice::Build(**big, binding);
    std::set<std::string> small_set, big_set;
    for (NodeId m : small_pl.mtns()) {
      small_set.insert(CanonicalLabel(lattice_->node(m).tree));
    }
    for (NodeId m : big_pl.mtns()) {
      big_set.insert(CanonicalLabel((*big)->node(m).tree));
    }
    for (const std::string& label : small_set) {
      EXPECT_TRUE(big_set.count(label)) << label;
    }
  }
}

TEST_F(PrunedLatticeTest, NoMtnWhenKeywordsCannotConnect) {
  // Two keywords two joins apart cannot meet within max_joins = 0.
  LatticeConfig config;
  config.max_joins = 1;
  config.num_keyword_copies = 2;
  auto small = LatticeGenerator::Generate(schema_, config);
  ASSERT_TRUE(small.ok());
  // red -> Color, candle -> ProductType need Item in between (2 joins).
  PrunedLattice pl = PrunedLattice::Build(**small, RedCandle());
  EXPECT_TRUE(pl.mtns().empty());
  EXPECT_TRUE(pl.retained().empty());
  EXPECT_EQ(pl.MaxRetainedLevel(), 0u);
}

TEST_F(PrunedLatticeTest, MultiKeywordSameRelation) {
  // Both keywords on Item: the two Item copies can only meet through a
  // shared dimension row, giving the three MTNs I1 - X0 - I2 for
  // X in {ProductType, Color, Attribute}.
  KeywordBinding binding({{"red", {item_, 1}}, {"candle", {item_, 2}}});
  PrunedLattice pl = PrunedLattice::Build(*lattice_, binding);
  ASSERT_EQ(pl.mtns().size(), 3u);
  for (NodeId m : pl.mtns()) {
    const JoinTree& t = lattice_->node(m).tree;
    EXPECT_EQ(t.num_vertices(), 3u);
    EXPECT_TRUE(t.ContainsVertex({item_, 1}));
    EXPECT_TRUE(t.ContainsVertex({item_, 2}));
  }
}

}  // namespace
}  // namespace kwsdbg
