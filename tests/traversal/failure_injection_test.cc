// Failure injection: when the serving database disagrees with the offline
// artifacts (a table dropped between reindex and query time), every strategy
// must surface the error as a Status rather than mis-classifying nodes; and
// when a deadline fires mid-run, every verdict a strategy still reports must
// be the one the full run reports.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "baselines/return_everything.h"
#include "common/fault_injector.h"
#include "test_util.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class FailureInjectionTest : public testing::Test {
 protected:
  FailureInjectionTest()
      : pl_(PrunedLattice::Build(
            *fx_.lattice,
            KeywordBinding({{"saffron", {fx_.color, 1}},
                            {"scented", {fx_.item, 1}},
                            {"candle", {fx_.ptype, 1}}}))) {
    // A "serving" database missing the Item table entirely.
    auto c = broken_db_.CreateTable(
        "Color", Schema({{"id", DataType::kInt64},
                         {"color", DataType::kString},
                         {"synonyms", DataType::kString}}));
    auto p = broken_db_.CreateTable(
        "ProductType", Schema({{"id", DataType::kInt64},
                               {"product_type", DataType::kString}}));
    auto a = broken_db_.CreateTable(
        "Attribute", Schema({{"id", DataType::kInt64},
                             {"property", DataType::kString},
                             {"value", DataType::kString}}));
    KWSDBG_CHECK(c.ok() && p.ok() && a.ok());
  }

  ToyFixture fx_;
  PrunedLattice pl_;
  Database broken_db_;
};

TEST_F(FailureInjectionTest, EveryStrategyPropagatesExecutorErrors) {
  for (TraversalKind kind : AllTraversalKinds()) {
    auto strategy = MakeStrategy(kind);
    Executor executor(&broken_db_);
    QueryEvaluator evaluator(&broken_db_, &executor, &pl_, fx_.index.get());
    auto result = strategy->Run(pl_, &evaluator);
    ASSERT_FALSE(result.ok()) << strategy->name();
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
        << strategy->name();
  }
}

TEST_F(FailureInjectionTest, ReturnEverythingPropagatesToo) {
  auto re = MakeReturnEverything();
  Executor executor(&broken_db_);
  QueryEvaluator evaluator(&broken_db_, &executor, &pl_, fx_.index.get());
  EXPECT_FALSE(re->Run(pl_, &evaluator).ok());
}

TEST_F(FailureInjectionTest, HealthyRunAfterFailedRunIsClean) {
  // A failed run against the broken database must not poison a subsequent
  // run against the healthy one (fresh executor/evaluator per run).
  {
    auto strategy = MakeStrategy(TraversalKind::kScoreBased);
    Executor executor(&broken_db_);
    QueryEvaluator evaluator(&broken_db_, &executor, &pl_, fx_.index.get());
    ASSERT_FALSE(strategy->Run(pl_, &evaluator).ok());
  }
  auto strategy = MakeStrategy(TraversalKind::kScoreBased);
  Executor executor(fx_.db.get());
  QueryEvaluator evaluator(fx_.db.get(), &executor, &pl_, fx_.index.get());
  auto result = strategy->Run(pl_, &evaluator);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->outcomes[0].alive);
  EXPECT_EQ(result->outcomes[0].mpans.size(), 2u);
}

// The verdict-lookup fault point sits before the cache and the SQL of every
// evaluation the level-1 shortcuts do not answer, so firing a deadline there
// once, after K such evaluations, cuts a strategy at every point of its run:
// after K = 0, 1, ... SQL queries of the uncached full run.
TEST_F(FailureInjectionTest, MidRunDeadlineKeepsOnlyFullRunVerdicts) {
  // Besides the fixture's one-MTN space, a 3-join one whose five MTNs are
  // all dead and share sub-networks.
  ToyFixture deep(/*max_joins=*/3);
  const PrunedLattice deep_pl = PrunedLattice::Build(
      *deep.lattice, KeywordBinding({{"saffron", {deep.color, 1}},
                                     {"scented", {deep.item, 1}},
                                     {"candle", {deep.item, 2}}}));
  ASSERT_EQ(deep_pl.mtns().size(), 5u);
  const std::pair<const ToyFixture*, const PrunedLattice*> spaces[] = {
      {&fx_, &pl_}, {&deep, &deep_pl}};
  for (const auto& [fx, pl] : spaces) {
    auto run = [&](TraversalStrategy* strategy) {
      Executor executor(fx->db.get());
      QueryEvaluator evaluator(fx->db.get(), &executor, pl, fx->index.get());
      auto result = strategy->Run(*pl, &evaluator);
      KWSDBG_CHECK(result.ok()) << result.status().ToString();
      return std::move(*result);
    };
    for (TraversalKind kind : AllTraversalKinds()) {
      auto strategy = MakeStrategy(kind);
      const TraversalResult full = run(strategy.get());
      ASSERT_FALSE(full.truncated);
      std::map<NodeId, const MtnOutcome*> full_by_mtn;
      for (const MtnOutcome& outcome : full.outcomes) {
        full_by_mtn[outcome.mtn] = &outcome;
      }
      const size_t evaluations = full.stats.sql_queries;
      ASSERT_GT(evaluations, 0u) << strategy->name();
      for (size_t k = 0; k < evaluations; ++k) {
        SCOPED_TRACE(std::string(strategy->name()) + " over " +
                     std::to_string(pl->mtns().size()) + " MTN(s), cut after " +
                     std::to_string(k) + " evaluation(s)");
        ScopedFaultInjection faults("cache.verdict.lookup=deadline,after=" +
                                    std::to_string(k) + ",times=1");
        const TraversalResult cut = run(strategy.get());
        EXPECT_TRUE(cut.truncated);
        EXPECT_EQ(cut.stats.sql_queries, k);
        for (const MtnOutcome& outcome : cut.outcomes) {
          ASSERT_EQ(full_by_mtn.count(outcome.mtn), 1u);
          const MtnOutcome& want = *full_by_mtn[outcome.mtn];
          EXPECT_EQ(outcome.alive, want.alive) << "MTN " << outcome.mtn;
          if (outcome.frontier_complete) {
            EXPECT_EQ(outcome.mpans, want.mpans) << "MTN " << outcome.mtn;
            EXPECT_EQ(outcome.culprits, want.culprits) << "MTN " << outcome.mtn;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kwsdbg
