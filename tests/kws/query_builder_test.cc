#include "kws/query_builder.h"

#include <gtest/gtest.h>

#include "datasets/dblife.h"
#include "datasets/toy_product_db.h"
#include "datasets/workload.h"
#include "kws/pruned_lattice.h"
#include "lattice/lattice_generator.h"
#include "sql/executor.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace {

class QueryBuilderTest : public testing::Test {
 protected:
  void SetUp() override {
    auto ds = BuildToyProductDatabase();
    ASSERT_TRUE(ds.ok());
    db_ = std::move(ds->db);
    schema_ = std::move(ds->schema);
    color_ = *schema_.RelationIdByName("Color");
    ptype_ = *schema_.RelationIdByName("ProductType");
    item_ = *schema_.RelationIdByName("Item");
  }

  std::unique_ptr<Database> db_;
  SchemaGraph schema_;
  RelationId color_ = 0, ptype_ = 0, item_ = 0;
};

TEST_F(QueryBuilderTest, SingleFreeVertex) {
  KeywordBinding binding(std::vector<KeywordAssignment>{});
  JoinTree t = JoinTree::Single({item_, 0});
  auto q = BuildNodeQuery(t, schema_, binding);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->vertices.size(), 1u);
  EXPECT_EQ(q->vertices[0].table, "Item");
  EXPECT_EQ(q->vertices[0].alias, "Item_0");
  EXPECT_TRUE(q->vertices[0].keyword.empty());
}

TEST_F(QueryBuilderTest, BoundVertexGetsKeyword) {
  KeywordBinding binding({{"red", {color_, 1}}});
  JoinTree t = JoinTree::Single({color_, 1});
  auto q = BuildNodeQuery(t, schema_, binding);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->vertices[0].keyword, "red");
}

TEST_F(QueryBuilderTest, UnboundKeywordCopyRejected) {
  KeywordBinding binding({{"red", {color_, 1}}});
  JoinTree t = JoinTree::Single({color_, 2});
  EXPECT_EQ(BuildNodeQuery(t, schema_, binding).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QueryBuilderTest, JoinColumnsOrientedBySchemaEdge) {
  KeywordBinding binding({{"candle", {ptype_, 1}}});
  // Edge 0 is Item.p_type -> ProductType.id; build tree P1 <- I0.
  JoinTree t = JoinTree::Single({ptype_, 1}).Extend(0, {item_, 0}, 0);
  auto q = BuildNodeQuery(t, schema_, binding);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->joins.size(), 1u);
  // Vertex 0 = ProductType, vertex 1 = Item; the join must pair
  // ProductType.id with Item.p_type regardless of orientation.
  const QueryJoin& j = q->joins[0];
  EXPECT_EQ(q->vertices[j.left].table == "ProductType" ? j.left_column
                                                       : j.right_column,
            "id");
  EXPECT_EQ(q->vertices[j.left].table == "Item" ? j.left_column
                                                : j.right_column,
            "p_type");
}

TEST_F(QueryBuilderTest, BuiltQueryExecutes) {
  KeywordBinding binding({{"candle", {ptype_, 1}}, {"scented", {item_, 1}}});
  JoinTree t = JoinTree::Single({ptype_, 1}).Extend(0, {item_, 1}, 0);
  auto q = BuildNodeQuery(t, schema_, binding);
  ASSERT_TRUE(q.ok());
  Executor executor(db_.get());
  auto rs = executor.Execute(*q);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 3u);
}

TEST_F(QueryBuilderTest, LatticeOverloadEquivalent) {
  LatticeConfig config;
  config.max_joins = 1;
  config.num_keyword_copies = 1;
  auto lattice = LatticeGenerator::Generate(schema_, config);
  ASSERT_TRUE(lattice.ok());
  KeywordBinding binding({{"candle", {ptype_, 1}}});
  NodeId id = (*lattice)->FindTree(JoinTree::Single({ptype_, 1}));
  ASSERT_NE(id, kInvalidNode);
  auto q = BuildNodeQuery(**lattice, id, binding);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->vertices[0].keyword, "candle");
}

// NodePlanBuilder against the query strings it replaces in the debugger:
// for every retained node of every Table 2 interpretation, on a resident and
// on a spilled DBLife (ExecutorSpillTest's spill settings), IsNonEmpty on
// the built plan must return IsNonEmpty(BuildNodeQuery(...))'s verdict and
// probe exactly as many rows and flat-index keys.
class NodePlanParityTest : public testing::TestWithParam<size_t> {};

TEST_P(NodePlanParityTest, Table2RetainedNodesOnDblife) {
  const size_t level = GetParam();
  for (const bool spilled : {false, true}) {
    SCOPED_TRACE(spilled ? "spilled" : "resident");
    auto ds = GenerateDblife(DblifeConfig{});
    ASSERT_TRUE(ds.ok());
    InvertedIndex index = InvertedIndex::Build(*ds->db);
    if (spilled) {
      ASSERT_TRUE(index.SpillToDisk("", /*cache_lists=*/4).ok());
      SpillOptions opts;
      opts.page_size = 512;
      ASSERT_TRUE(ds->db->ApplyMemoryBudget(1, opts).ok());
      ASSERT_TRUE(ds->db->AnySpilled());
    }
    // The benchmarks' lattice configuration (bench/bench_util.cc).
    LatticeConfig config;
    config.max_joins = level - 1;
    config.num_keyword_copies = 3;
    config.copy_policy = CopyPolicy::kTextRelationsOnly;
    auto lattice = LatticeGenerator::Generate(ds->schema, config);
    ASSERT_TRUE(lattice.ok());
    KeywordBinder binder(&ds->schema, &index, 3);
    Executor by_plan(ds->db.get());
    Executor by_query(ds->db.get());
    by_plan.RegisterTextIndex(&index);
    by_query.RegisterTextIndex(&index);
    JoinPlan plan;
    size_t interpretations = 0, nodes = 0, alive = 0;
    for (const WorkloadQuery& q : PaperWorkload()) {
      for (const KeywordBinding& binding :
           binder.Bind(q.text).interpretations) {
        ++interpretations;
        const PrunedLattice pl = PrunedLattice::Build(**lattice, binding);
        const NodePlanBuilder builder(ds->schema, *ds->db, binding);
        for (NodeId id : pl.retained()) {
          auto query = BuildNodeQuery(**lattice, id, binding);
          ASSERT_TRUE(query.ok()) << query.status().ToString();
          ASSERT_TRUE(builder.Build((*lattice)->node(id).tree, &plan).ok());
          const ExecutorStats p0 = by_plan.stats();
          const ExecutorStats q0 = by_query.stats();
          auto a = by_plan.IsNonEmpty(plan);
          auto b = by_query.IsNonEmpty(*query);
          ASSERT_TRUE(a.ok()) << a.status().ToString();
          ASSERT_TRUE(b.ok()) << b.status().ToString();
          const std::string where = q.id + " node " + std::to_string(id);
          EXPECT_EQ(*a, *b) << where;
          EXPECT_EQ(by_plan.stats().rows_probed - p0.rows_probed,
                    by_query.stats().rows_probed - q0.rows_probed)
              << where;
          EXPECT_EQ(by_plan.stats().flat_probes - p0.flat_probes,
                    by_query.stats().flat_probes - q0.flat_probes)
              << where;
          ++nodes;
          alive += *a;
        }
      }
    }
    EXPECT_EQ(interpretations, 67u);
    EXPECT_GT(alive, 0u);
    EXPECT_LT(alive, nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, NodePlanParityTest, testing::Values(3, 5));

// The builder fails exactly as the query path does: an unbound keyword copy
// before anything else, then a table the database lacks.
TEST_F(QueryBuilderTest, NodePlanBuilderFailsLikeTheQueryPath) {
  const JoinTree tree =
      JoinTree::Single({item_, 1}).Extend(0, {color_, 2}, 1);
  ASSERT_TRUE(tree.Validate(schema_).ok());
  const KeywordBinding binding({{"scented", {item_, 1}}});
  JoinPlan plan;
  EXPECT_EQ(NodePlanBuilder(schema_, *db_, binding).Build(tree, &plan).code(),
            BuildNodeQuery(tree, schema_, binding).status().code());
  EXPECT_EQ(BuildNodeQuery(tree, schema_, binding).status().code(),
            StatusCode::kFailedPrecondition);

  Database empty;
  const KeywordBinding both(
      {{"scented", {item_, 1}}, {"red", {color_, 2}}});
  auto query = BuildNodeQuery(tree, schema_, both);
  ASSERT_TRUE(query.ok());
  const Status via_query = query->Validate(empty);
  EXPECT_EQ(via_query.code(), StatusCode::kNotFound);
  EXPECT_EQ(NodePlanBuilder(schema_, empty, both).Build(tree, &plan).code(),
            via_query.code());
}

}  // namespace
}  // namespace kwsdbg
