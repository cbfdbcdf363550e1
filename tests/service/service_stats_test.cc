// Regression tests for the two ComputeServiceStats correctness rules plus
// edge-case batches (empty / single-query / all-shed / shedding-heavy
// chaos). Both bugs reproduced before the fix:
//   * shed queries (never ran, exec_millis == 0) were pushed into the
//     latency sample and the mean-queue-wait denominator, dragging
//     p50/p95 toward zero exactly when the service was overloaded;
//   * queries_per_second divided by a raw wall_millis that rounds to 0 for
//     sub-resolution batches, reporting 0 QPS and slipping through
//     ">= floor" bench gates vacuously.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/debug_service.h"
#include "service/service_json.h"
#include "test_util.h"

namespace kwsdbg {
namespace {

QueryResult Ran(double exec_millis, double queue_millis = 1.0) {
  QueryResult r;
  r.keyword_query = "ran";
  r.exec_millis = exec_millis;
  r.queue_millis = queue_millis;
  return r;
}

QueryResult Shed() {
  QueryResult r;
  r.keyword_query = "shed";
  r.shed = true;
  r.status = Status::ResourceExhausted("query shed by admission control");
  // Shed at enqueue: never picked up, never ran.
  r.exec_millis = 0;
  r.queue_millis = 0;
  return r;
}

TEST(ComputeServiceStatsTest, EmptyBatchIsAllZero) {
  const ServiceStats stats = ComputeServiceStats({}, /*wall_millis=*/5.0);
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queries_per_second, 0.0);
  EXPECT_EQ(stats.p50_millis, 0.0);
  EXPECT_EQ(stats.p999_millis, 0.0);
  EXPECT_EQ(stats.mean_queue_millis, 0.0);
}

TEST(ComputeServiceStatsTest, SingleQueryBatch) {
  const ServiceStats stats =
      ComputeServiceStats({Ran(7.0, 2.0)}, /*wall_millis=*/10.0);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_DOUBLE_EQ(stats.p50_millis, 7.0);
  EXPECT_DOUBLE_EQ(stats.p95_millis, 7.0);
  EXPECT_DOUBLE_EQ(stats.p99_millis, 7.0);
  EXPECT_DOUBLE_EQ(stats.p999_millis, 7.0);
  EXPECT_DOUBLE_EQ(stats.max_millis, 7.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_millis, 2.0);
  EXPECT_DOUBLE_EQ(stats.queries_per_second, 100.0);
}

// Satellite fix: a sub-resolution wall time must not zero out throughput.
// Before the fix wall_millis == 0 reported queries_per_second == 0, which
// passed through ">= 0" assertions and made QPS-floor gates vacuous.
TEST(ComputeServiceStatsTest, ZeroWallTimeStillReportsPositiveQps) {
  const ServiceStats stats =
      ComputeServiceStats({Ran(0.0)}, /*wall_millis=*/0.0);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GT(stats.queries_per_second, 0.0)
      << "QPS must be finite and positive even when the batch completes "
         "inside the timer's resolution";
}

// Satellite fix: shed queries never ran, so their zero exec times must not
// enter the latency sample. Before the fix this batch reported p50 == 0.
TEST(ComputeServiceStatsTest, ShedQueriesExcludedFromLatencySample) {
  const std::vector<QueryResult> results = {
      Ran(10.0, 3.0), Shed(), Ran(20.0, 6.0), Shed(), Ran(30.0, 9.0), Shed()};
  const ServiceStats stats = ComputeServiceStats(results, 100.0);
  EXPECT_EQ(stats.queries, 6u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.failed, 3u) << "shed queries are failed (retryable)";
  // Percentiles over {10, 20, 30} only — the broken version computed them
  // over {0, 0, 0, 10, 20, 30} and reported p50 == 0.
  EXPECT_DOUBLE_EQ(stats.p50_millis, 20.0);
  EXPECT_DOUBLE_EQ(stats.max_millis, 30.0);
  // Mean queue wait over ran queries only: (3 + 6 + 9) / 3, not / 6.
  EXPECT_DOUBLE_EQ(stats.mean_queue_millis, 6.0);
}

TEST(ComputeServiceStatsTest, AllShedBatch) {
  const std::vector<QueryResult> results = {Shed(), Shed(), Shed()};
  const ServiceStats stats = ComputeServiceStats(results, 50.0);
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.failed, 3u);
  // No query ran: the latency distribution is empty, not zero-valued.
  EXPECT_EQ(stats.p50_millis, 0.0);
  EXPECT_EQ(stats.p999_millis, 0.0);
  EXPECT_EQ(stats.max_millis, 0.0);
  EXPECT_EQ(stats.mean_queue_millis, 0.0);
  EXPECT_GT(stats.queries_per_second, 0.0);
}

// Chaos batch: a shedding-heavy interleaving must report the same latency
// distribution as the same batch with the shed entries filtered out.
TEST(ComputeServiceStatsTest, ChaosBatchMatchesFilteredBatch) {
  std::vector<QueryResult> chaos;
  std::vector<QueryResult> filtered;
  for (int i = 0; i < 200; ++i) {
    if (i % 3 != 0) {  // two thirds shed, adversarially interleaved
      chaos.push_back(Shed());
      continue;
    }
    QueryResult r = Ran(1.0 + static_cast<double>(i % 37),
                        0.5 * static_cast<double>(i % 11));
    chaos.push_back(r);
    filtered.push_back(r);
  }
  const ServiceStats chaos_stats = ComputeServiceStats(chaos, 500.0);
  const ServiceStats clean_stats = ComputeServiceStats(filtered, 500.0);
  EXPECT_DOUBLE_EQ(chaos_stats.p50_millis, clean_stats.p50_millis);
  EXPECT_DOUBLE_EQ(chaos_stats.p95_millis, clean_stats.p95_millis);
  EXPECT_DOUBLE_EQ(chaos_stats.p99_millis, clean_stats.p99_millis);
  EXPECT_DOUBLE_EQ(chaos_stats.p999_millis, clean_stats.p999_millis);
  EXPECT_DOUBLE_EQ(chaos_stats.max_millis, clean_stats.max_millis);
  EXPECT_DOUBLE_EQ(chaos_stats.mean_queue_millis,
                   clean_stats.mean_queue_millis);
  EXPECT_EQ(chaos_stats.shed, chaos.size() - filtered.size());
}

TEST(ComputeServiceStatsTest, PercentilesAreOrdered) {
  std::vector<QueryResult> results;
  for (int i = 1; i <= 1000; ++i) results.push_back(Ran(i));
  const ServiceStats stats = ComputeServiceStats(results, 1000.0);
  EXPECT_LE(stats.p50_millis, stats.p95_millis);
  EXPECT_LE(stats.p95_millis, stats.p99_millis);
  EXPECT_LE(stats.p99_millis, stats.p999_millis);
  EXPECT_LE(stats.p999_millis, stats.max_millis);
  EXPECT_GT(stats.p999_millis, stats.p99_millis)
      << "with 1000 distinct samples p999 must resolve past p99";
}

// End-to-end: RunBatch's aggregate obeys both rules through the service.
TEST(ServiceStatsIntegrationTest, RunBatchAggregateObeysBothRules) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  std::vector<std::string> queries(8, "saffron candle");
  BatchResult batch = service.RunBatch(queries);
  ASSERT_TRUE(batch.status.ok());
  ASSERT_GT(batch.stats.shed, 0u) << "queue depth 1 must shed an 8-query "
                                     "burst on a single worker";
  EXPECT_GT(batch.stats.queries_per_second, 0.0);
  // The aggregate percentiles must equal percentiles recomputed over the
  // ran queries only.
  std::vector<QueryResult> ran;
  for (const QueryResult& r : batch.results) {
    if (!r.shed) ran.push_back(r);
  }
  ASSERT_FALSE(ran.empty());
  const ServiceStats expected =
      ComputeServiceStats(ran, batch.stats.wall_millis);
  EXPECT_DOUBLE_EQ(batch.stats.p50_millis, expected.p50_millis);
  EXPECT_DOUBLE_EQ(batch.stats.p999_millis, expected.p999_millis);
  EXPECT_DOUBLE_EQ(batch.stats.mean_queue_millis,
                   expected.mean_queue_millis);
  EXPECT_GT(batch.stats.p50_millis, 0.0)
      << "ran queries have nonzero exec time; a zero p50 means shed "
         "entries leaked back into the sample";
}

TEST(ServiceStatsIntegrationTest, JsonCarriesShardAndTailFields) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch({"saffron candle", "red candle"});
  const std::string stats_json = ServiceStatsToJson(batch.stats);
  EXPECT_NE(stats_json.find("\"p999_millis\":"), std::string::npos);
}

}  // namespace
}  // namespace kwsdbg
