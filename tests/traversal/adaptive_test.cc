// Adaptive traversal (traversal/pa_model.h): model learning/decay/freeze
// semantics, and the two safety properties adaptive mode is gated on — a
// cold model reproduces static SBH @ 0.5 bit for bit, and a warm model never
// changes a classification (verdicts are ground truth; see DESIGN.md).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/fault_injector.h"
#include "debugger/non_answer_debugger.h"
#include "test_util.h"
#include "traversal/pa_model.h"
#include "traversal/strategy.h"

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
  PaModel model;  // buckets answer the prior below four observations
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

// ---- Cold-start safety: empty model == SBH @ 0.5, bit for bit ----

TEST(AdaptiveColdStartTest, ColdModelSbhMatchesFixedSbhExactly) {
  ToyFixture fx;
  PaModel cold;
  SbhOptions fixed;
  auto sbh = MakeStrategy(TraversalKind::kScoreBased, fixed);
  SbhOptions fed;
  fed.pa_model = &cold;
  auto sbh_fed = MakeStrategy(TraversalKind::kScoreBased, fed);
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

    // Fresh owned model per query: model-fed SBH against an empty model is
    // SBH @ 0.5.
    DebuggerOptions adaptive_options;
    adaptive_options.adaptive = true;
    NonAnswerDebugger adaptive(fx.db.get(), fx.lattice.get(), fx.index.get(),
                               adaptive_options);
    ASSERT_NE(adaptive.pa_model(), nullptr);
    EXPECT_EQ(fixed.pa_model(), nullptr);
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
    }
  }
}

// ---- Classification parity: a warm model never changes a verdict ----

// The adaptive debugger runs SBH reading the shared model; a fresh run of
// the configured strategy (static SBH @ 0.5) must classify identically.
TEST(AdaptiveParityTest, AdaptiveVerdictsMatchFreshRunOfPlannedStrategy) {
  ToyFixture fx;
  const char* queries[] = {"saffron candle", "red candle", "candle",
                           "saffron scented candle", "gray soap"};
  PaModel model;
  DebuggerOptions options;
  options.adaptive = true;
  options.shared_pa_model = &model;
  {
    // Warm the model: without a verdict cache every pass re-observes.
    DebuggerOptions warm = options;
    warm.verdict_cache_capacity = 0;
    NonAnswerDebugger warmer(fx.db.get(), fx.lattice.get(), fx.index.get(),
                             warm);
    for (int pass = 0; pass < 3; ++pass) {
      for (const char* query : queries) {
        ASSERT_TRUE(warmer.Debug(query).ok()) << query;
      }
    }
  }
  // The parity below means something only if SBH reads a learned p_a.
  bool learned = false;
  for (const PaBucketSnapshot& bucket : model.Snapshot()) {
    learned |= model.Estimate(bucket.level, bucket.sel_bucket) != 0.5;
  }
  ASSERT_TRUE(learned) << "warm-up left every bucket at the 0.5 prior";

  NonAnswerDebugger adaptive(fx.db.get(), fx.lattice.get(), fx.index.get(),
                             options);
  for (const char* query : queries) {
    auto got = adaptive.Debug(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    NonAnswerDebugger fixed(fx.db.get(), fx.lattice.get(), fx.index.get());
    auto want = fixed.Debug(query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->ClassificationSignature(), want->ClassificationSignature())
        << query;
  }
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

  PaModel model;
  DebuggerOptions options;
  options.adaptive = true;
  options.shared_pa_model = &model;
  NonAnswerDebugger debugger(fx.db.get(), fx.lattice.get(), fx.index.get(),
                             options);
  auto report = debugger.Debug("saffron candle");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(model.data_version(), v2);
  const size_t warm = model.observations();
  ASSERT_GT(warm, 0u);

  // A mutation epoch decays the learned counts on the next query.
  fx.db->BumpEpoch();
  auto again = debugger.Debug("red candle");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(model.data_version(), DataVersionOf(*fx.db));
  EXPECT_NE(model.data_version(), v2);
}

// ---- Per-run accounting: pa_observations counts this run's verdicts ----

size_t RunPaObservations(const ToyFixture& fx, PaModel* model,
                         const char* query) {
  DebuggerOptions options;
  options.adaptive = true;
  options.shared_pa_model = model;
  NonAnswerDebugger debugger(fx.db.get(), fx.lattice.get(), fx.index.get(),
                             options);
  auto report = debugger.Debug(query);
  KWSDBG_CHECK(report.ok()) << report.status().ToString();
  return report->AggregateTraversalStats().pa_observations;
}

// Another worker's verdicts land in a shared model while this run is in
// flight; they must not be counted as this run's observations. The observer
// writes a selectivity bucket no toy query reads, so the schedule (and with
// it the run's own count) is the private model's.
TEST(PaObservationCountTest, ConcurrentObserverDoesNotLeakIntoRunCount) {
  ToyFixture fx;
  const char* query = "saffron scented candle";
  PaModel private_model;
  const size_t want = RunPaObservations(fx, &private_model, query);
  ASSERT_GT(want, 0u);

  PaModel shared;
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      shared.Observe(1, PaModel::kSelBuckets - 1, /*alive=*/true);
    }
  });
  while (shared.observations() == 0) std::this_thread::yield();
  size_t got = 0;
  {
    // A latency-only fault sleeps before every SQL verdict, so the observer
    // runs mid-run even when both threads share one core.
    ScopedFaultInjection pause("cache.verdict.lookup=ok,latency=1");
    got = RunPaObservations(fx, &shared, query);
  }
  stop.store(true, std::memory_order_relaxed);
  observer.join();
  EXPECT_EQ(got, want);
}

TEST(PaObservationCountTest, FrozenModelCountsNothing) {
  ToyFixture fx;
  PaModel model;
  model.Freeze();
  EXPECT_EQ(RunPaObservations(fx, &model, "saffron scented candle"), 0u);
  EXPECT_EQ(model.observations(), 0u);
}

}  // namespace
}  // namespace kwsdbg
