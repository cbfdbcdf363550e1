#include "lattice/canonical_label.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/dblife.h"

namespace kwsdbg {
namespace {

// A small schema with two relations and one join, as in the paper's Fig. 4.
class CanonicalLabelTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("R", true).ok());
    ASSERT_TRUE(schema_.AddRelation("S", true).ok());
    ASSERT_TRUE(schema_.AddRelation("T", true).ok());
    // Not validated against data here; ids suffice for labeling.
    ASSERT_TRUE(schema_.AddJoin("R", "b", "S", "c").ok());   // edge 0
    ASSERT_TRUE(schema_.AddJoin("S", "d", "T", "e").ok());   // edge 1
  }
  SchemaGraph schema_;
};

TEST_F(CanonicalLabelTest, SingleVertexLabel) {
  JoinTree t = JoinTree::Single({0, 1});
  std::string l = CanonicalLabel(t);
  std::string want = "[";
  want += std::to_string(VertexLabelId({0, 1}));
  want += "]";
  EXPECT_EQ(l, want);
}

TEST_F(CanonicalLabelTest, ExtensionOrderIrrelevant) {
  // R1 -- S1 built from R1, and from S1: same labeled tree.
  JoinTree a = JoinTree::Single({0, 1}).Extend(0, {1, 1}, 0);
  JoinTree b = JoinTree::Single({1, 1}).Extend(0, {0, 1}, 0);
  EXPECT_EQ(CanonicalLabel(a), CanonicalLabel(b));
}

TEST_F(CanonicalLabelTest, DifferentCopiesDiffer) {
  // Fig. 4: R1-S1, R2-S1, R1-S2, R2-S2 are four distinct nodes.
  JoinTree r1s1 = JoinTree::Single({0, 1}).Extend(0, {1, 1}, 0);
  JoinTree r2s1 = JoinTree::Single({0, 2}).Extend(0, {1, 1}, 0);
  JoinTree r1s2 = JoinTree::Single({0, 1}).Extend(0, {1, 2}, 0);
  EXPECT_NE(CanonicalLabel(r1s1), CanonicalLabel(r2s1));
  EXPECT_NE(CanonicalLabel(r1s1), CanonicalLabel(r1s2));
  EXPECT_NE(CanonicalLabel(r2s1), CanonicalLabel(r1s2));
}

TEST_F(CanonicalLabelTest, ChildOrderIrrelevantInPath) {
  // Path R1 - S1 - T1 assembled in two different orders.
  JoinTree a =
      JoinTree::Single({0, 1}).Extend(0, {1, 1}, 0).Extend(1, {2, 1}, 1);
  JoinTree b =
      JoinTree::Single({2, 1}).Extend(0, {1, 1}, 1).Extend(1, {0, 1}, 0);
  EXPECT_EQ(CanonicalLabel(a), CanonicalLabel(b));
}

TEST_F(CanonicalLabelTest, EdgeLabelMatters) {
  SchemaGraph multi;
  ASSERT_TRUE(multi.AddRelation("P", true).ok());
  ASSERT_TRUE(multi.AddRelation("CoAuth", false).ok());
  ASSERT_TRUE(multi.AddJoin("CoAuth", "p1", "P", "id").ok());  // edge 0
  ASSERT_TRUE(multi.AddJoin("CoAuth", "p2", "P", "id").ok());  // edge 1
  JoinTree via_p1 = JoinTree::Single({0, 1}).Extend(0, {1, 0}, 0);
  JoinTree via_p2 = JoinTree::Single({0, 1}).Extend(0, {1, 0}, 1);
  EXPECT_NE(CanonicalLabel(via_p1), CanonicalLabel(via_p2));
}

TEST_F(CanonicalLabelTest, PaperExampleThreeChildStar) {
  // Fig. 5: a star v1-{v2,v3,v4} has the same canonical form no matter how
  // the children are attached. Use a schema with three distinct edges.
  SchemaGraph star;
  ASSERT_TRUE(star.AddRelation("Hub", true).ok());
  ASSERT_TRUE(star.AddRelation("A", true).ok());
  ASSERT_TRUE(star.AddRelation("B", true).ok());
  ASSERT_TRUE(star.AddRelation("C", true).ok());
  ASSERT_TRUE(star.AddJoin("Hub", "a", "A", "id").ok());
  ASSERT_TRUE(star.AddJoin("Hub", "b", "B", "id").ok());
  ASSERT_TRUE(star.AddJoin("Hub", "c", "C", "id").ok());
  JoinTree t1 = JoinTree::Single({0, 0})
                    .Extend(0, {1, 1}, 0)
                    .Extend(0, {2, 1}, 1)
                    .Extend(0, {3, 1}, 2);
  JoinTree t2 = JoinTree::Single({0, 0})
                    .Extend(0, {3, 1}, 2)
                    .Extend(0, {1, 1}, 0)
                    .Extend(0, {2, 1}, 1);
  JoinTree t3 = JoinTree::Single({3, 1})
                    .Extend(0, {0, 0}, 2)
                    .Extend(1, {2, 1}, 1)
                    .Extend(1, {1, 1}, 0);
  EXPECT_EQ(CanonicalLabel(t1), CanonicalLabel(t2));
  EXPECT_EQ(CanonicalLabel(t1), CanonicalLabel(t3));
}

TEST_F(CanonicalLabelTest, VertexLabelIdPacksRelationAndCopy) {
  EXPECT_NE(VertexLabelId({0, 1}), VertexLabelId({0, 2}));
  EXPECT_NE(VertexLabelId({0, 1}), VertexLabelId({1, 1}));
  EXPECT_LT(VertexLabelId({0, 1}), VertexLabelId({1, 0}));
}

// Property: random assembly orders of the same vertex/edge set agree.
class CanonicalLabelPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalLabelPropertyTest, RandomPathAssemblyOrders) {
  // Build a fixed path P1 - writes0 - Pub1 - about0 - Topic1 over a DBLife
  // mini schema, assembling left-to-right vs right-to-left vs middle-out.
  DblifeConfig config;
  config.num_persons = 5;
  config.num_publications = 5;
  config.num_conferences = 3;
  config.num_organizations = 3;
  config.num_topics = 3;
  config.seed = GetParam();
  auto ds = GenerateDblife(config);
  ASSERT_TRUE(ds.ok());
  const SchemaGraph& g = ds->schema;
  RelationId person = *g.RelationIdByName("Person");
  RelationId writes = *g.RelationIdByName("writes");
  RelationId pub = *g.RelationIdByName("Publication");
  // Find the edge ids.
  EdgeId w_p = 0, w_pub = 0;
  for (const JoinEdge& e : g.edges()) {
    if (e.from == writes && e.to == person) w_p = e.id;
    if (e.from == writes && e.to == pub) w_pub = e.id;
  }
  JoinTree ltr = JoinTree::Single({person, 1})
                     .Extend(0, {writes, 0}, w_p)
                     .Extend(1, {pub, 1}, w_pub);
  JoinTree rtl = JoinTree::Single({pub, 1})
                     .Extend(0, {writes, 0}, w_pub)
                     .Extend(1, {person, 1}, w_p);
  JoinTree mid = JoinTree::Single({writes, 0})
                     .Extend(0, {pub, 1}, w_pub)
                     .Extend(0, {person, 1}, w_p);
  EXPECT_EQ(CanonicalLabel(ltr), CanonicalLabel(rtl));
  EXPECT_EQ(CanonicalLabel(ltr), CanonicalLabel(mid));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalLabelPropertyTest,
                         testing::Values(1, 7, 99));

}  // namespace
}  // namespace kwsdbg
