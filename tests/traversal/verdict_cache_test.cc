// Session verdict cache: verdicts keyed by (canonical label, binding
// signature, database epoch) persist across traversals, so a repeated query
// re-derives every classification without SQL until the database changes.
#include "traversal/verdict_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "debugger/non_answer_debugger.h"
#include "test_util.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

using testutil::Summarize;
using testutil::ToyFixture;

TEST(VerdictCacheTest, LookupKeysOnAllThreeComponents) {
  VerdictCache cache(/*capacity=*/16);
  EXPECT_EQ(cache.Lookup("T0(T1)", "sig", 0), std::nullopt);
  cache.Insert("T0(T1)", "sig", 0, /*relset=*/0, true, /*rel_mask=*/0);
  EXPECT_EQ(cache.Lookup("T0(T1)", "sig", 0), true);
  // Any differing component is a distinct verdict.
  EXPECT_EQ(cache.Lookup("T0(T2)", "sig", 0), std::nullopt);
  EXPECT_EQ(cache.Lookup("T0(T1)", "other", 0), std::nullopt);
  EXPECT_EQ(cache.Lookup("T0(T1)", "sig", 1), std::nullopt);
  cache.Insert("T0(T1)", "sig", 1, /*relset=*/0, false, /*rel_mask=*/0);
  EXPECT_EQ(cache.Lookup("T0(T1)", "sig", 1), false);
  VerdictCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 2u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

class VerdictCacheTraversalTest : public testing::Test {
 protected:
  VerdictCacheTraversalTest()
      : binding_({{"saffron", {fx_.color, 1}},
                  {"scented", {fx_.item, 1}},
                  {"candle", {fx_.ptype, 1}}}),
        pl_(PrunedLattice::Build(*fx_.lattice, binding_)) {}

  TraversalResult RunWithCache(
      VerdictCache* cache,
      TraversalKind kind = TraversalKind::kBottomUpWithReuse) {
    auto strategy = MakeStrategy(kind);
    Executor executor(fx_.db.get());
    QueryEvaluator evaluator(fx_.db.get(), &executor, &pl_, fx_.index.get(),
                             EvalOptions{}, cache);
    auto result = strategy->Run(pl_, &evaluator);
    KWSDBG_CHECK(result.ok()) << result.status().ToString();
    return std::move(*result);
  }

  ToyFixture fx_;
  KeywordBinding binding_;
  PrunedLattice pl_;
};

TEST_F(VerdictCacheTraversalTest, SecondTraversalNeedsNoSql) {
  for (TraversalKind kind : AllTraversalKinds()) {
    SCOPED_TRACE(std::string(TraversalKindName(kind)));
    VerdictCache cache;
    TraversalResult cold = RunWithCache(&cache, kind);
    ASSERT_GT(cold.stats.sql_queries, 0u);
    EXPECT_EQ(cold.stats.cache_hits, 0u);
    EXPECT_EQ(cold.stats.cache_misses, cold.stats.sql_queries);

    // A fresh evaluator over the same lattice + binding: every non-base
    // verdict is already cached, so no SQL runs and nothing changes.
    TraversalResult warm = RunWithCache(&cache, kind);
    EXPECT_EQ(warm.stats.sql_queries, 0u);
    EXPECT_EQ(warm.stats.cache_hits, cold.stats.cache_misses);
    EXPECT_EQ(Summarize(warm), Summarize(cold));

    // And the cache never changes classifications vs. running without one.
    TraversalResult uncached = RunWithCache(nullptr, kind);
    EXPECT_EQ(Summarize(uncached), Summarize(cold));
    EXPECT_EQ(uncached.stats.cache_hits + uncached.stats.cache_misses, 0u);
  }
}

// Warm reruns on several threads at once through one cache, as the workers
// of a DebugService share theirs: each rerun finds every verdict the cold
// run cached, so none issues SQL and all agree with the cold run.
using ParallelAgreementTest = VerdictCacheTraversalTest;

TEST_F(ParallelAgreementTest, SharedCacheMakesParallelRerunsSqlFree) {
  constexpr int kThreads = 4;
  for (TraversalKind kind : AllTraversalKinds()) {
    SCOPED_TRACE(std::string(TraversalKindName(kind)));
    VerdictCache cache;
    TraversalResult cold = RunWithCache(&cache, kind);
    ASSERT_GT(cold.stats.sql_queries, 0u);
    std::vector<TraversalResult> warm(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { warm[t] = RunWithCache(&cache, kind); });
    }
    for (std::thread& t : threads) t.join();
    for (const TraversalResult& rerun : warm) {
      EXPECT_EQ(rerun.stats.sql_queries, 0u);
      EXPECT_GT(rerun.stats.cache_hits, 0u);
      EXPECT_EQ(Summarize(rerun), Summarize(cold));
    }
  }
}

TEST_F(VerdictCacheTraversalTest, EpochBumpInvalidatesVerdicts) {
  VerdictCache cache;
  TraversalResult cold = RunWithCache(&cache);
  ASSERT_GT(cold.stats.sql_queries, 0u);

  // Simulate a database mutation: stale verdicts must not be served.
  fx_.db->BumpEpoch();
  TraversalResult after = RunWithCache(&cache);
  EXPECT_EQ(after.stats.cache_hits, 0u);
  EXPECT_EQ(after.stats.sql_queries, cold.stats.sql_queries);
  EXPECT_EQ(Summarize(after), Summarize(cold));
}

TEST(VerdictCacheDebuggerTest, CachePersistsAcrossDebugCalls) {
  ToyFixture fx;
  NonAnswerDebugger debugger(fx.db.get(), fx.lattice.get(), fx.index.get());
  ASSERT_NE(debugger.verdict_cache(), nullptr);

  auto first = debugger.Debug("saffron scented candle");
  ASSERT_TRUE(first.ok());
  TraversalStats cold = first->AggregateTraversalStats();
  ASSERT_GT(cold.sql_queries, 0u);

  auto second = debugger.Debug("saffron scented candle");
  ASSERT_TRUE(second.ok());
  TraversalStats warm = second->AggregateTraversalStats();

  EXPECT_EQ(warm.sql_queries, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(second->TotalAnswers(), first->TotalAnswers());
  EXPECT_EQ(second->TotalNonAnswers(), first->TotalNonAnswers());

  // Disabling the cache restores stateless sessions.
  DebuggerOptions no_cache;
  no_cache.verdict_cache_capacity = 0;
  NonAnswerDebugger stateless(fx.db.get(), fx.lattice.get(), fx.index.get(),
                              no_cache);
  EXPECT_EQ(stateless.verdict_cache(), nullptr);
  auto a = stateless.Debug("saffron scented candle");
  auto b = stateless.Debug("saffron scented candle");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b->AggregateTraversalStats().sql_queries,
            a->AggregateTraversalStats().sql_queries);
}

}  // namespace
}  // namespace kwsdbg
