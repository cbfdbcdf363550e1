// Adaptive traversal tier (traversal/pa_model.h, strategy_planner.h):
// model learning/decay/freeze semantics, planner explore/exploit behaviour,
// and the two safety properties the tier is gated on — a cold model
// reproduces static SBH @ 0.5 bit for bit, and planner decisions never
// change a classification (verdicts are ground truth; see DESIGN.md).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "debugger/non_answer_debugger.h"
#include "test_util.h"
#include "traversal/pa_model.h"
#include "traversal/strategies.h"
#include "traversal/strategy_planner.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

// ---- PaModel ----

TEST(PaModelTest, ColdBucketReturnsPrior) {
  PaModel model;
  EXPECT_DOUBLE_EQ(model.Estimate(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(model.Estimate(3, 7), 0.5);
  EXPECT_EQ(model.observations(), 0u);
  EXPECT_TRUE(model.Snapshot().empty());
}

TEST(PaModelTest, BelowMinObservationsStaysAtPrior) {
  PaModel model;  // min_observations = 4
  for (int i = 0; i < 3; ++i) model.Observe(2, 1, /*alive=*/true);
  EXPECT_DOUBLE_EQ(model.Estimate(2, 1), 0.5);
  model.Observe(2, 1, true);
  EXPECT_GT(model.Estimate(2, 1), 0.5);
}

TEST(PaModelTest, LearnsSmoothedAliveFraction) {
  PaModel model;
  for (int i = 0; i < 8; ++i) model.Observe(1, 2, true);
  for (int i = 0; i < 2; ++i) model.Observe(1, 2, false);
  // (8 + 0.5 * 2) / (10 + 2) = 0.75 with the default prior smoothing.
  EXPECT_DOUBLE_EQ(model.Estimate(1, 2), 0.75);
  // Other buckets are untouched.
  EXPECT_DOUBLE_EQ(model.Estimate(2, 2), 0.5);
  EXPECT_DOUBLE_EQ(model.Estimate(1, 3), 0.5);
}

TEST(PaModelTest, EstimatesClampAtTheExtremes) {
  PaModel model;
  for (int i = 0; i < 50; ++i) model.Observe(1, 0, true);
  for (int i = 0; i < 50; ++i) model.Observe(2, 0, false);
  EXPECT_DOUBLE_EQ(model.Estimate(1, 0), 0.9);
  EXPECT_DOUBLE_EQ(model.Estimate(2, 0), 0.1);
}

TEST(PaModelTest, FirstSyncSetsVersionWithoutDecay) {
  PaModel model;
  for (int i = 0; i < 10; ++i) model.Observe(1, 1, true);
  EXPECT_EQ(model.data_version(), 0u);
  model.SyncDataVersion(42);
  EXPECT_EQ(model.data_version(), 42u);
  EXPECT_EQ(model.observations(), 10u);  // no decay on the first sync
  model.SyncDataVersion(42);
  EXPECT_EQ(model.observations(), 10u);  // same version: no-op
  model.SyncDataVersion(43);
  EXPECT_EQ(model.observations(), 5u);  // change: counts halve
  auto snapshot = model.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].alive, 5u);
  EXPECT_EQ(snapshot[0].total, 5u);
}

TEST(PaModelTest, FreezeStopsObservationAndDecay) {
  PaModel model;
  for (int i = 0; i < 10; ++i) model.Observe(1, 1, true);
  model.SyncDataVersion(1);
  model.Freeze();
  model.Observe(1, 1, false);
  EXPECT_EQ(model.observations(), 10u);
  model.SyncDataVersion(2);
  EXPECT_EQ(model.observations(), 10u);
  EXPECT_EQ(model.data_version(), 1u);
}

TEST(PaModelTest, SnapshotForFiltersOneSelectivityColumn) {
  PaModel model;
  for (int i = 0; i < 6; ++i) model.Observe(1, 2, true);
  for (int i = 0; i < 6; ++i) model.Observe(2, 5, false);
  auto slice = model.SnapshotFor(2);
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice[0].level, 1u);
  EXPECT_EQ(slice[0].sel_bucket, 2u);
  EXPECT_EQ(slice[0].total, 6u);
}

TEST(PaModelTest, SelectivityBucketsAreMonotoneAndCapped) {
  EXPECT_EQ(SelectivityBucketOf(0), 0u);
  EXPECT_EQ(SelectivityBucketOf(1), 1u);
  size_t prev = 0;
  for (size_t rows = 1; rows < 1u << 20; rows *= 2) {
    const size_t bucket = SelectivityBucketOf(rows);
    EXPECT_GE(bucket, prev) << rows;
    EXPECT_LT(bucket, PaModel::kSelBuckets);
    prev = bucket;
  }
  EXPECT_EQ(SelectivityBucketOf(1u << 20), PaModel::kSelBuckets - 1);
}

// ---- StrategyPlanner ----

PlannerFeatures SomeFeatures() {
  PlannerFeatures f;
  f.retained_nodes = 12;
  f.num_mtns = 3;
  f.max_level = 3;
  f.base_nodes = 4;
  f.top_nodes = 1;
  f.min_keyword_rows = 9;
  f.sel_bucket = SelectivityBucketOf(9);
  return f;
}

TEST(StrategyPlannerTest, ColdBucketFallsBackToModelFedSbh) {
  StrategyPlannerOptions options;
  options.explore_eps = 0;
  StrategyPlanner planner(options);
  PlannerDecision decision = planner.Decide(SomeFeatures());
  EXPECT_EQ(decision.arm, PlannerArm::kSbhAdaptive);
  EXPECT_FALSE(decision.explored);
}

TEST(StrategyPlannerTest, ExploitsLowestMeanSqlWithMillisTieBreak) {
  StrategyPlannerOptions options;
  options.explore_eps = 0;
  StrategyPlanner planner(options);
  const PlannerFeatures f = SomeFeatures();
  for (PlannerArm arm : AllPlannerArms()) {
    planner.ObserveArm(f, arm, /*sql_queries=*/50, /*total_millis=*/5.0);
  }
  planner.ObserveArm(f, PlannerArm::kTopDown, 2, 9.0);
  EXPECT_EQ(planner.Decide(f).arm, PlannerArm::kTopDown);
  // Tie on mean SQL: BUWR matches TD's mean but is faster.
  planner.ObserveArm(f, PlannerArm::kBottomUpReuse, 2, 0.5);
  planner.ObserveArm(f, PlannerArm::kBottomUpReuse, 2, 0.5);
  planner.ObserveArm(f, PlannerArm::kTopDown, 2, 9.0);
  // TD mean sql = (50+2+2)/3 = 18; BUWR = (50+2+2)/3 = 18; BUWR millis win.
  EXPECT_EQ(planner.Decide(f).arm, PlannerArm::kBottomUpReuse);
}

TEST(StrategyPlannerTest, ForcedExplorationVisitsEveryArm) {
  StrategyPlannerOptions options;
  options.explore_eps = 1.0;
  options.seed = 99;
  StrategyPlanner planner(options);
  const PlannerFeatures f = SomeFeatures();
  std::set<PlannerArm> seen;
  for (int i = 0; i < 48; ++i) {
    PlannerDecision d = planner.Decide(f);
    EXPECT_TRUE(d.explored);
    seen.insert(d.arm);
    planner.Observe(d, 10, 1.0);
  }
  EXPECT_EQ(seen.size(), kNumPlannerArms);
  EXPECT_EQ(planner.explored(), 48u);
  EXPECT_EQ(planner.decisions(), 48u);
}

TEST(StrategyPlannerTest, FrozenPlannerExploitsOnly) {
  StrategyPlannerOptions options;
  options.explore_eps = 1.0;
  StrategyPlanner planner(options);
  const PlannerFeatures f = SomeFeatures();
  for (PlannerArm arm : AllPlannerArms()) planner.ObserveArm(f, arm, 50, 5.0);
  planner.ObserveArm(f, PlannerArm::kBottomUp, 1, 1.0);
  planner.Freeze();
  for (int i = 0; i < 16; ++i) {
    PlannerDecision d = planner.Decide(f);
    EXPECT_FALSE(d.explored);
    EXPECT_EQ(d.arm, PlannerArm::kBottomUp);
  }
  EXPECT_EQ(planner.explored(), 0u);
  // Observation and decay are also frozen out.
  planner.Observe(planner.Decide(f), 1000, 1000.0);
  EXPECT_EQ(planner.Decide(f).arm, PlannerArm::kBottomUp);
}

// ---- Cold-start safety: empty model == SBH @ 0.5, bit for bit ----

TEST(AdaptiveColdStartTest, ColdModelSbhMatchesFixedSbhExactly) {
  ToyFixture fx;
  PaModel cold;
  SbhOptions fixed;
  auto sbh = MakeScoreBased(fixed);
  SbhOptions fed;
  fed.pa_model = &cold;
  auto sbh_fed = MakeScoreBased(fed);
  const KeywordBinding bindings[] = {
      KeywordBinding({{"saffron", {fx.color, 1}},
                      {"scented", {fx.item, 1}},
                      {"candle", {fx.ptype, 1}}}),
      KeywordBinding({{"red", {fx.color, 1}}, {"candle", {fx.ptype, 1}}}),
  };
  for (const KeywordBinding& binding : bindings) {
    TraversalResult a = fx.Run(sbh.get(), binding);
    TraversalResult b = fx.Run(sbh_fed.get(), binding);
    // Same verdicts AND the same schedule: identical SQL counts.
    EXPECT_EQ(testutil::Summarize(a), testutil::Summarize(b));
    EXPECT_EQ(a.stats.sql_queries, b.stats.sql_queries);
  }
}

TEST(AdaptiveColdStartTest, ColdAdaptiveDebuggerMatchesStaticSbh) {
  ToyFixture fx;
  const char* queries[] = {"saffron candle", "red candle",
                           "saffron scented candle", "gray soap"};
  for (const char* query : queries) {
    DebuggerOptions static_options;
    static_options.strategy = TraversalKind::kScoreBased;
    NonAnswerDebugger fixed(fx.db.get(), fx.lattice.get(), fx.index.get(),
                            static_options);
    auto want = fixed.Debug(query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    // Fresh owned state per query: the planner's cold fallback must be
    // model-fed SBH, which against an empty model is SBH @ 0.5.
    DebuggerOptions adaptive_options;
    adaptive_options.adaptive = true;
    adaptive_options.adaptive_options.planner.explore_eps = 0;
    NonAnswerDebugger adaptive(fx.db.get(), fx.lattice.get(), fx.index.get(),
                               adaptive_options);
    auto got = adaptive.Debug(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    EXPECT_EQ(got->ClassificationSignature(), want->ClassificationSignature())
        << query;
    ASSERT_EQ(got->interpretations.size(), want->interpretations.size());
    if (!got->interpretations.empty()) {
      // The first interpretation runs against a genuinely empty model (later
      // ones see its observations): its SQL count must match exactly.
      const TraversalStats& g = got->interpretations[0].traversal_stats;
      const TraversalStats& w = want->interpretations[0].traversal_stats;
      EXPECT_EQ(g.sql_queries, w.sql_queries) << query;
      EXPECT_EQ(g.planned_strategy, "SBH+pa") << query;
      EXPECT_EQ(g.planner_decisions, 1u);
    }
  }
}

// ---- Classification parity: planner picks never change a verdict ----

TEST(AdaptiveParityTest, AdaptiveVerdictsMatchFreshRunOfPlannedStrategy) {
  ToyFixture fx;
  AdaptiveState state([] {
    AdaptiveOptions o;
    o.planner.explore_eps = 0.3;  // force a mix of explored arms
    o.planner.seed = 7;
    return o;
  }());
  DebuggerOptions options;
  options.adaptive = true;
  options.shared_adaptive = &state;
  NonAnswerDebugger adaptive(fx.db.get(), fx.lattice.get(), fx.index.get(),
                             options);

  const char* queries[] = {"saffron candle", "red candle", "candle",
                           "saffron scented candle", "saffron candle",
                           "red candle", "candle"};
  std::map<std::string, PlannerArm> arm_by_name;
  for (PlannerArm arm : AllPlannerArms()) {
    arm_by_name[std::string(PlannerArmName(arm))] = arm;
  }
  size_t reruns = 0;
  for (const char* query : queries) {
    auto report = adaptive.Debug(query);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string label =
        report->AggregateTraversalStats().planned_strategy;
    if (label.empty() || label == "mixed") continue;
    // Re-run the whole query with the planner's pick pinned on a fresh
    // debugger: the verdicts must be bit-identical.
    ASSERT_TRUE(arm_by_name.count(label)) << label;
    const PlannerArm arm = arm_by_name[label];
    DebuggerOptions pinned;
    pinned.strategy = ArmTraversalKind(arm);
    if (arm == PlannerArm::kSbhAdaptive) pinned.sbh.pa_model = &state.pa();
    NonAnswerDebugger fresh(fx.db.get(), fx.lattice.get(), fx.index.get(),
                            pinned);
    auto want = fresh.Debug(query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(report->ClassificationSignature(),
              want->ClassificationSignature())
        << query << " planned as " << label;
    ++reruns;
  }
  EXPECT_GT(reruns, 0u);
  EXPECT_GT(state.planner().decisions(), 0u);
  EXPECT_GT(state.pa().observations(), 0u);
}

// ---- Data-version plumbing: live epochs reach the model ----

TEST(AdaptiveDriftTest, EpochBumpChangesDataVersionAndDecaysModel) {
  ToyFixture fx;
  const uint64_t v1 = DataVersionOf(*fx.db);
  EXPECT_NE(v1, 0u);
  EXPECT_EQ(v1, DataVersionOf(*fx.db));  // stable while data is unchanged
  fx.db->BumpEpoch();
  const uint64_t v2 = DataVersionOf(*fx.db);
  EXPECT_NE(v1, v2);

  AdaptiveState state;
  DebuggerOptions options;
  options.adaptive = true;
  options.adaptive_options.planner.explore_eps = 0;
  options.shared_adaptive = &state;
  NonAnswerDebugger debugger(fx.db.get(), fx.lattice.get(), fx.index.get(),
                             options);
  auto report = debugger.Debug("saffron candle");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(state.pa().data_version(), v2);
  const size_t warm = state.pa().observations();
  ASSERT_GT(warm, 0u);

  // A mutation epoch decays the learned counts on the next query.
  fx.db->BumpEpoch();
  auto again = debugger.Debug("red candle");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(state.pa().data_version(), DataVersionOf(*fx.db));
  EXPECT_NE(state.pa().data_version(), v2);
}

}  // namespace
}  // namespace kwsdbg
