#include "traversal/evaluator.h"

#include <gtest/gtest.h>

#include "service/live_mutator.h"
#include "test_util.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class EvaluatorTest : public testing::Test {
 protected:
  EvaluatorTest()
      : pl_(PrunedLattice::Build(
            *fx_.lattice,
            KeywordBinding({{"saffron", {fx_.color, 1}},
                            {"scented", {fx_.item, 1}},
                            {"candle", {fx_.ptype, 1}}}))),
        executor_(fx_.db.get()) {}

  NodeId NodeAtLevel(size_t level, size_t index = 0) const {
    return pl_.retained()[pl_.LevelRange(level).first + index];
  }

  std::vector<NodeId> NodesAtLevel(size_t level) const {
    const auto [begin, end] = pl_.LevelRange(level);
    return {pl_.retained().begin() + begin, pl_.retained().begin() + end};
  }

  ToyFixture fx_;
  PrunedLattice pl_;
  Executor executor_;
};

TEST_F(EvaluatorTest, BaseBoundNodesResolveViaIndexWithoutSql) {
  QueryEvaluator evaluator(fx_.db.get(), &executor_, &pl_, fx_.index.get());
  for (NodeId n : NodesAtLevel(1)) {
    auto alive = evaluator.IsAlive(n);
    ASSERT_TRUE(alive.ok());
    EXPECT_TRUE(*alive);  // all three keywords occur; tables are non-empty
  }
  EXPECT_EQ(evaluator.sql_executed(), 0u);
  EXPECT_EQ(executor_.stats().queries_executed, 0u);
}

TEST_F(EvaluatorTest, IndexShortcutAgreesWithSql) {
  EvalOptions no_shortcut;
  no_shortcut.base_nodes_via_index = false;
  QueryEvaluator with(fx_.db.get(), &executor_, &pl_, fx_.index.get());
  QueryEvaluator without(fx_.db.get(), &executor_, &pl_, fx_.index.get(),
                         no_shortcut);
  for (NodeId n : NodesAtLevel(1)) {
    auto a = with.IsAlive(n);
    auto b = without.IsAlive(n);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
  EXPECT_EQ(with.sql_executed(), 0u);
  EXPECT_EQ(without.sql_executed(), NodesAtLevel(1).size());
}

TEST_F(EvaluatorTest, HigherNodesAlwaysUseSql) {
  QueryEvaluator evaluator(fx_.db.get(), &executor_, &pl_, fx_.index.get());
  auto alive = evaluator.IsAlive(NodeAtLevel(2));
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(evaluator.sql_executed(), 1u);
  EXPECT_GT(evaluator.sql_millis(), 0.0);
}

TEST_F(EvaluatorTest, NoMemoizationByDesign) {
  // The no-reuse strategies depend on the evaluator re-executing.
  QueryEvaluator evaluator(fx_.db.get(), &executor_, &pl_, fx_.index.get());
  NodeId n = NodeAtLevel(2);
  ASSERT_TRUE(evaluator.IsAlive(n).ok());
  ASSERT_TRUE(evaluator.IsAlive(n).ok());
  EXPECT_EQ(evaluator.sql_executed(), 2u);
}

TEST_F(EvaluatorTest, FreeBaseNodeDeadOnEmptyTable) {
  // A schema with an empty table: the free copy of it is dead.
  Database db;
  auto table = db.CreateTable(
      "Empty", Schema({{"id", DataType::kInt64}, {"t", DataType::kString}}));
  ASSERT_TRUE(table.ok());
  SchemaGraph schema;
  ASSERT_TRUE(schema.AddRelation("Empty", true).ok());
  LatticeConfig config;
  config.max_joins = 0;
  config.num_keyword_copies = 1;
  auto lattice = LatticeGenerator::Generate(schema, config);
  ASSERT_TRUE(lattice.ok());
  InvertedIndex index = InvertedIndex::Build(db);
  KeywordBinding binding(std::vector<KeywordAssignment>{});
  PrunedLattice pl = PrunedLattice::Build(**lattice, binding);
  Executor executor(&db);
  QueryEvaluator evaluator(&db, &executor, &pl, &index);
  NodeId free_node = (*lattice)->FindTree(JoinTree::Single({0, 0}));
  ASSERT_NE(free_node, kInvalidNode);
  auto alive = evaluator.IsAlive(free_node);
  ASSERT_TRUE(alive.ok());
  EXPECT_FALSE(*alive);
  EXPECT_EQ(evaluator.sql_executed(), 0u);
}

// A write to a bound table between two verdicts on one executor: the
// session's match set for that table, and the membership bitset built with
// it, must not outlive the write. Each verdict must equal a fresh
// executor's.
TEST_F(EvaluatorTest, WriteBetweenVerdictsFlipsLikeAFreshExecutor) {
  QueryEvaluator evaluator(fx_.db.get(), &executor_, &pl_, fx_.index.get());
  ASSERT_EQ(pl_.mtns().size(), 1u);
  const NodeId mtn = pl_.mtns()[0];  // q1's dead Color-Item-ProductType
  auto fresh_verdict = [&]() {
    Executor fresh(fx_.db.get());
    QueryEvaluator eval(fx_.db.get(), &fresh, &pl_, fx_.index.get());
    auto alive = eval.IsAlive(mtn);
    KWSDBG_CHECK(alive.ok()) << alive.status().ToString();
    return *alive;
  };
  auto before = evaluator.IsAlive(mtn);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(*before);

  // A saffron-coloured scented candle: the network gains a witness.
  LiveMutator mutator(fx_.db.get(), fx_.index.get(), /*fences=*/nullptr);
  const size_t row = (*fx_.db->GetTable("Item"))->num_rows();
  ASSERT_TRUE(mutator
                  .Apply(Mutation::Insert(
                      "Item", {Value(int64_t{99}),
                               Value("saffron scented candle"),
                               Value(int64_t{2}), Value(int64_t{4}),
                               Value(int64_t{1}), Value(1.0), Value("new")}))
                  .ok());
  auto alive = evaluator.IsAlive(mtn);
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(*alive);
  EXPECT_EQ(*alive, fresh_verdict());

  ASSERT_TRUE(mutator.Apply(Mutation::Delete("Item", row)).ok());
  auto dead = evaluator.IsAlive(mtn);
  ASSERT_TRUE(dead.ok());
  EXPECT_FALSE(*dead);
  EXPECT_EQ(*dead, fresh_verdict());
  EXPECT_EQ(evaluator.sql_executed(), 3u);
}

TEST_F(EvaluatorTest, MissingTableSurfacesError) {
  // The lattice/schema mention a table the serving database lacks: the
  // evaluator must surface the error, not mis-classify.
  Database empty_db;
  Executor executor(&empty_db);
  QueryEvaluator evaluator(&empty_db, &executor, &pl_, fx_.index.get());
  auto result = evaluator.IsAlive(NodeAtLevel(2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace kwsdbg
