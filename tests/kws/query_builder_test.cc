#include "kws/query_builder.h"

#include <gtest/gtest.h>

#include "datasets/dblife.h"
#include "datasets/toy_product_db.h"
#include "datasets/workload.h"
#include "kws/pruned_lattice.h"
#include "lattice/lattice_generator.h"
#include "sql/executor.h"
#include "test_util.h"
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

// The report text the debugger printed before NodeTextRenderer: the tree's
// ToString, and the SQL that BuildNodeQuery's query prints.
Status QueryPathText(const JoinTree& tree, const SchemaGraph& schema,
                     const KeywordBinding& binding, const Database& db,
                     std::string* network, std::string* sql) {
  *network = tree.ToString(schema);
  KWSDBG_ASSIGN_OR_RETURN(JoinNetworkQuery query,
                          BuildNodeQuery(tree, schema, binding));
  KWSDBG_ASSIGN_OR_RETURN(*sql, query.ToSql(db));
  return Status::OK();
}

// Renders `tree` both ways and expects the same status (code and message)
// and, on success, the same bytes. Returns the renderer's status.
Status ExpectSameText(const NodeTextRenderer& renderer, const JoinTree& tree,
                      const SchemaGraph& schema,
                      const KeywordBinding& binding, const Database& db) {
  std::string want_network, want_sql, network, sql;
  const Status want =
      QueryPathText(tree, schema, binding, db, &want_network, &want_sql);
  const Status got = renderer.Render(tree, binding, &network, &sql);
  const std::string where = tree.ToString(schema) + " under " +
                            binding.ToString(schema);
  EXPECT_EQ(got.ToString(), want.ToString()) << where;
  if (want.ok() && got.ok()) {
    EXPECT_EQ(network, want_network) << where;
    EXPECT_EQ(sql, want_sql) << where;
  }
  return got;
}

// NodeTextRenderer against the query path it replaces in the debugger's
// reports: every retained node of every Table 2 interpretation on DBLife.
class NodeTextParityTest : public testing::TestWithParam<size_t> {};

TEST_P(NodeTextParityTest, Table2RetainedNodesOnDblife) {
  const size_t level = GetParam();
  auto ds = GenerateDblife(DblifeConfig{});
  ASSERT_TRUE(ds.ok());
  const InvertedIndex index = InvertedIndex::Build(*ds->db);
  // The benchmarks' lattice configuration (bench/bench_util.cc).
  LatticeConfig config;
  config.max_joins = level - 1;
  config.num_keyword_copies = 3;
  config.copy_policy = CopyPolicy::kTextRelationsOnly;
  auto lattice = LatticeGenerator::Generate(ds->schema, config);
  ASSERT_TRUE(lattice.ok());
  const KeywordBinder binder(&ds->schema, &index, 3);
  const NodeTextRenderer renderer(ds->schema, *ds->db);
  size_t interpretations = 0, nodes = 0;
  for (const WorkloadQuery& q : PaperWorkload()) {
    for (const KeywordBinding& binding : binder.Bind(q.text).interpretations) {
      ++interpretations;
      const PrunedLattice pl = PrunedLattice::Build(**lattice, binding);
      for (NodeId id : pl.retained()) {
        ASSERT_TRUE(ExpectSameText(renderer, (*lattice)->node(id).tree,
                                   ds->schema, binding, *ds->db)
                        .ok())
            << q.id << " node " << id;
        ++nodes;
      }
    }
  }
  EXPECT_EQ(interpretations, 67u);
  EXPECT_GT(nodes, interpretations);
}

INSTANTIATE_TEST_SUITE_P(Levels, NodeTextParityTest, testing::Values(3, 5));

TEST(NodeTextParityTest, RetainedNodesOnToyDatabase) {
  testutil::ToyFixture fx(/*max_joins=*/3, /*copies=*/2);
  const KeywordBinder binder(&fx.schema, fx.index.get(), 2);
  const NodeTextRenderer renderer(fx.schema, *fx.db);
  size_t interpretations = 0, nodes = 0;
  for (const char* query : {"saffron scented candle", "red candle",
                            "vanilla incense", "floral oil", "saffron"}) {
    for (const KeywordBinding& binding : binder.Bind(query).interpretations) {
      ++interpretations;
      const PrunedLattice pl = PrunedLattice::Build(*fx.lattice, binding);
      for (NodeId id : pl.retained()) {
        ASSERT_TRUE(ExpectSameText(renderer, fx.lattice->node(id).tree,
                                   fx.schema, binding, *fx.db)
                        .ok())
            << query << " node " << id;
        ++nodes;
      }
    }
  }
  EXPECT_GT(interpretations, 5u);
  EXPECT_GT(nodes, interpretations);
}

// Keywords holding LIKE wildcards, the escape character and a quote render
// as the query path renders them: escaped for LIKE first, then quoted, in
// the binding's own case. An empty keyword gets no OR group.
TEST(NodeTextParityTest, EscapesWildcardsThenQuotes) {
  testutil::ToyFixture fx(/*max_joins=*/3, /*copies=*/2);
  const NodeTextRenderer renderer(fx.schema, *fx.db);
  const std::vector<KeywordBinding> bindings = {
      KeywordBinding({{"50%_Off\\it's", {fx.color, 1}}}),
      KeywordBinding({{"o'neil", {fx.item, 1}}, {"100%", {fx.item, 2}},
                      {"a_b", {fx.attr, 1}}}),
      KeywordBinding({{"\\'%_", {fx.ptype, 1}}, {"", {fx.color, 1}}}),
  };
  size_t nodes = 0;
  for (const KeywordBinding& binding : bindings) {
    const PrunedLattice pl = PrunedLattice::Build(*fx.lattice, binding);
    for (NodeId id : pl.retained()) {
      ASSERT_TRUE(ExpectSameText(renderer, fx.lattice->node(id).tree,
                                 fx.schema, binding, *fx.db)
                      .ok());
      ++nodes;
    }
  }
  EXPECT_GT(nodes, bindings.size());

  std::string network, sql;
  ASSERT_TRUE(renderer
                  .Render(JoinTree::Single({fx.color, 1}), bindings[0],
                          &network, &sql)
                  .ok());
  EXPECT_EQ(network, "Color[1]");
  EXPECT_EQ(sql,
            "SELECT * FROM Color AS Color_1 WHERE (Color_1.color LIKE "
            "'%50\\%\\_Off\\\\it''s%' OR Color_1.synonyms LIKE "
            "'%50\\%\\_Off\\\\it''s%')");
  network.clear();
  sql.clear();
  ASSERT_TRUE(renderer
                  .Render(JoinTree::Single({fx.item, 0}), bindings[0],
                          &network, &sql)
                  .ok());
  EXPECT_EQ(sql, "SELECT * FROM Item AS Item_0");
}

// Every failure keeps the query path's status, code and message, checked in
// its order: an unbound keyword copy, then a missing table, then a missing
// join column, then a keyword bound to a table without text columns.
TEST(NodeTextParityTest, FailsLikeTheQueryPath) {
  testutil::ToyFixture fx;
  const JoinTree tree =
      JoinTree::Single({fx.item, 1}).Extend(0, {fx.color, 2}, 1);
  ASSERT_TRUE(tree.Validate(fx.schema).ok());
  const KeywordBinding item_only({{"scented", {fx.item, 1}}});
  const KeywordBinding both({{"scented", {fx.item, 1}}, {"red", {fx.color, 2}}});

  const NodeTextRenderer over_toy(fx.schema, *fx.db);
  EXPECT_EQ(ExpectSameText(over_toy, tree, fx.schema, item_only, *fx.db)
                .code(),
            StatusCode::kFailedPrecondition);
  // The unbound copy is reported before the missing tables.
  Database empty;
  const NodeTextRenderer over_empty(fx.schema, empty);
  EXPECT_EQ(ExpectSameText(over_empty, tree, fx.schema, item_only, empty)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ExpectSameText(over_empty, tree, fx.schema, both, empty).code(),
            StatusCode::kNotFound);

  // Item without its color column: the join column is missing. Color has
  // no text column, which is reported only after the join checks pass.
  Database no_column;
  ASSERT_TRUE(no_column
                  .CreateTable("Item", Schema({{"id", DataType::kInt64},
                                               {"name", DataType::kString}}))
                  .ok());
  ASSERT_TRUE(
      no_column.CreateTable("Color", Schema({{"id", DataType::kInt64}})).ok());
  const NodeTextRenderer over_no_column(fx.schema, no_column);
  const Status missing_column =
      ExpectSameText(over_no_column, tree, fx.schema, both, no_column);
  EXPECT_EQ(missing_column.code(), StatusCode::kNotFound);
  EXPECT_NE(missing_column.message().find("color"), std::string::npos)
      << missing_column.ToString();

  Database text_free;
  ASSERT_TRUE(text_free
                  .CreateTable("Item", Schema({{"id", DataType::kInt64},
                                               {"name", DataType::kString},
                                               {"color", DataType::kInt64}}))
                  .ok());
  ASSERT_TRUE(
      text_free.CreateTable("Color", Schema({{"id", DataType::kInt64}})).ok());
  const NodeTextRenderer over_text_free(fx.schema, text_free);
  EXPECT_EQ(ExpectSameText(over_text_free, tree, fx.schema, both, text_free)
                .code(),
            StatusCode::kFailedPrecondition);
  // The same tree renders once the text-free copy is free.
  const JoinTree free_color =
      JoinTree::Single({fx.item, 1}).Extend(0, {fx.color, 0}, 1);
  EXPECT_TRUE(
      ExpectSameText(over_text_free, free_color, fx.schema, both, text_free)
          .ok());
}

}  // namespace
}  // namespace kwsdbg
