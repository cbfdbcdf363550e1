// Chaos suite: the debugging pipeline under injected faults. The invariant
// being defended is the paper's ground-truth guarantee carried into a faulty
// world — a query either returns the *exact* fault-free classification
// (after retries or a degraded-mode fallback) or fails with a typed
// retryable status naming the faulted layer. No wrong verdict, ever.
//
// Determinism: every schedule here uses counted (`times=`) or always-on
// triggers, so runs replay bit-identically; probabilistic schedules belong
// to bench/resilience_workload where a fixed seed is printed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "datasets/ecommerce.h"
#include "datasets/query_generator.h"
#include "debugger/non_answer_debugger.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "storage/csv.h"
#include "test_util.h"

namespace kwsdbg {
namespace {

std::vector<std::string> ToyQueries() {
  return {"saffron candle", "red candle", "vanilla oil", "scented candle"};
}

/// Fault-free classification signatures, computed serially — the ground
/// truth every faulted run is compared against.
std::vector<std::string> BaselineSignatures(const testutil::ToyFixture& fx) {
  NonAnswerDebugger serial(fx.db.get(), fx.lattice.get(), fx.index.get());
  std::vector<std::string> sigs;
  for (const std::string& q : ToyQueries()) {
    auto report = serial.Debug(q);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    sigs.push_back(report->ClassificationSignature());
  }
  return sigs;
}

// --- Parity gates ---------------------------------------------------------

TEST(ChaosTest, RetryableFaultsWithBudgetAreInvisible) {
  testutil::ToyFixture fx;
  const std::vector<std::string> baseline = BaselineSignatures(fx);

  // A bounded burst of transient failures across three layers. The retry
  // budget (attempts per query) exceeds the total scheduled fires, so every
  // query must come back bit-identical to the fault-free run.
  ScopedFaultInjection faults(
      "cache.verdict.lookup=unavailable,times=2;"
      "storage.table.read=unavailable,times=2;"
      "executor.join.probe=resource-exhausted,times=2");
  ServiceOptions options;
  options.num_workers = 2;
  options.max_retries = 8;
  options.retry_backoff_base_millis = 0.1;  // Keep the test fast.
  options.retry_backoff_max_millis = 1.0;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch(ToyQueries());
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.stats.failed, 0u)
      << "every transient failure must be absorbed by retries";
  EXPECT_GT(batch.stats.retries, 0u)
      << "the schedule fired (" << FaultInjector::Global().Summary()
      << ") so some attempt must have been retried";
  for (size_t i = 0; i < batch.results.size(); ++i) {
    ASSERT_TRUE(batch.results[i].status.ok())
        << batch.results[i].status.ToString();
    EXPECT_EQ(batch.results[i].report.ClassificationSignature(), baseline[i])
        << "query \"" << ToyQueries()[i] << "\" diverged under faults";
  }
  EXPECT_GT(FaultInjector::Global().TotalFires(), 0u)
      << "schedule never fired — the test asserted nothing";
}

TEST(ChaosTest, RetriesDisabledSurfaceTypedErrorsAndNoWrongVerdicts) {
  testutil::ToyFixture fx;
  const std::vector<std::string> baseline = BaselineSignatures(fx);

  ScopedFaultInjection faults("cache.verdict.lookup=unavailable,times=3");
  ServiceOptions options;
  options.num_workers = 2;
  options.max_retries = 0;  // First transient failure is final.
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch(ToyQueries());
  ASSERT_TRUE(batch.status.ok());
  EXPECT_GT(batch.stats.failed, 0u) << "the schedule must hurt someone";
  EXPECT_EQ(batch.stats.retries, 0u);
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResult& r = batch.results[i];
    if (!r.status.ok()) {
      // Failed queries carry the typed retryable status, naming the layer.
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable)
          << r.status.ToString();
      EXPECT_TRUE(r.status.IsRetryable());
      EXPECT_NE(r.status.message().find("cache.verdict.lookup"),
                std::string::npos)
          << "error must name the fault point: " << r.status.ToString();
      // And no verdicts were fabricated for them.
      EXPECT_EQ(r.report.TotalAnswers(), 0u);
      EXPECT_EQ(r.report.TotalNonAnswers(), 0u);
    } else {
      // Untouched queries are bit-identical to the fault-free run.
      EXPECT_EQ(r.report.ClassificationSignature(), baseline[i]);
    }
  }
}

TEST(ChaosTest, DegradedModeFallbacksPreserveParity) {
  testutil::ToyFixture fx;
  const std::vector<std::string> baseline = BaselineSignatures(fx);

  // An always-on fault on the degrade-don't-fail path: posting lists.
  // Queries must not fail OR retry — the executor falls back to the LIKE
  // scan and the classification stays bit-identical.
  ScopedFaultInjection faults("executor.text_index=unavailable");
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch(ToyQueries());
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.stats.failed, 0u);
  EXPECT_EQ(batch.stats.retries, 0u)
      << "degradation must be invisible to the retry layer";
  for (size_t i = 0; i < batch.results.size(); ++i) {
    ASSERT_TRUE(batch.results[i].status.ok());
    EXPECT_EQ(batch.results[i].report.ClassificationSignature(), baseline[i])
        << "degraded run diverged on \"" << ToyQueries()[i] << "\"";
  }
  // The slow paths were actually taken, and the counters say so all the way
  // up the stack: ServiceStats and its JSON export.
  EXPECT_GT(batch.stats.index_fallbacks, 0u)
      << FaultInjector::Global().Summary();
  const std::string json = ServiceStatsToJson(batch.stats);
  EXPECT_NE(json.find("\"index_fallbacks\":"), std::string::npos);
  EXPECT_EQ(json.find("\"index_fallbacks\":0,"), std::string::npos)
      << "the fallback counter must be nonzero in: " << json;
}

// --- Per-fault-point propagation ------------------------------------------
// Each error-typed fault point must surface through QueryEvaluator ->
// NonAnswerDebugger -> QueryResult.status as the injected code, with the
// fault-point name preserved in the message.

class ChaosPropagationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosPropagationTest, InjectedStatusSurfacesThroughPipeline) {
  const std::string point = GetParam();
  testutil::ToyFixture fx;
  ScopedFaultInjection faults(point + "=unavailable");
  NonAnswerDebugger debugger(fx.db.get(), fx.lattice.get(), fx.index.get());
  bool fired = false;
  for (const std::string& q : ToyQueries()) {
    auto report = debugger.Debug(q);
    if (report.ok()) continue;  // This query never reached the point.
    fired = true;
    EXPECT_EQ(report.status().code(), StatusCode::kUnavailable)
        << report.status().ToString();
    EXPECT_TRUE(report.status().IsRetryable());
    EXPECT_NE(report.status().message().find(point), std::string::npos)
        << "status must name the fault point: " << report.status().ToString();
  }
  EXPECT_TRUE(fired) << "no toy query ever reached fault point " << point
                     << " — the point is dead or mis-threaded ("
                     << FaultInjector::Global().Summary() << ")";
}

INSTANTIATE_TEST_SUITE_P(AllErrorPoints, ChaosPropagationTest,
                         ::testing::Values("storage.table.read",
                                           "executor.index.build",
                                           "executor.join.probe",
                                           "cache.verdict.lookup"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST(ChaosTest, CsvLoadFaultAbortsTyped) {
  ScopedFaultInjection faults("storage.csv.load=unavailable,after=1,times=1");
  std::istringstream in("a:INT\n1\n2\n3\n");
  auto table = ReadTableCsv("t", &in);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(table.status().IsRetryable());
  EXPECT_NE(table.status().message().find("storage.csv.load"),
            std::string::npos)
      << table.status().ToString();
  // Clean retry after the outage: the load succeeds in full.
  std::istringstream retry("a:INT\n1\n2\n3\n");
  auto loaded = ReadTableCsv("t", &retry);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), 3u);
}

// --- Differential fuzz under faults ---------------------------------------
// The differential fuzzer's case generator (seeded random e-commerce
// catalogs + random queries), replayed through the service under fault
// schedules. For every generated query: the faulted run must be
// bit-identical to the fault-free serial run — the chaos analogue of
// DifferentialFuzzTest's runner-parity invariant.

TEST(ChaosFuzzTest, RandomInstancesStayBitIdenticalUnderFaults) {
  const char* iters_env = std::getenv("KWSDBG_CHAOS_FUZZ_ITERS");
  const char* seed_env = std::getenv("KWSDBG_FUZZ_SEED");
  const size_t iters =
      iters_env == nullptr ? 4 : static_cast<size_t>(std::atoll(iters_env));
  const uint64_t base_seed =
      seed_env == nullptr ? 1234 : static_cast<uint64_t>(std::atoll(seed_env));
  std::printf("chaos fuzz: %zu iteration(s), base seed %llu "
              "(KWSDBG_CHAOS_FUZZ_ITERS / KWSDBG_FUZZ_SEED to override)\n",
              iters, static_cast<unsigned long long>(base_seed));

  for (size_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    // Same instance shape as DifferentialFuzzTest::BuildCase.
    Rng rng(seed);
    EcommerceConfig config;
    config.seed = seed;
    config.num_items = static_cast<size_t>(rng.UniformRange(20, 80));
    const double null_rates[] = {0.0, 0.1, 0.3};
    config.null_color_rate = null_rates[rng.Uniform(3)];
    auto dataset = GenerateEcommerce(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    LatticeConfig lconfig;
    lconfig.max_joins = 2;
    lconfig.num_keyword_copies = 2;
    auto lattice = LatticeGenerator::Generate(dataset->schema, lconfig);
    ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
    InvertedIndex index = InvertedIndex::Build(*dataset->db);

    QueryGeneratorConfig gconfig;
    gconfig.seed = seed;
    gconfig.min_keywords = 1;
    gconfig.max_keywords = 3;
    RandomQueryGenerator generator(&index, gconfig);
    std::vector<std::string> queries;
    for (size_t q = 0; q < 3; ++q) queries.push_back(generator.Next());
    queries.push_back("saffron candle");  // The paper's dead-MTN frontier.

    // Fault-free serial ground truth.
    std::vector<std::string> baseline;
    {
      NonAnswerDebugger serial(dataset->db.get(), lattice->get(), &index);
      for (const std::string& q : queries) {
        auto report = serial.Debug(q);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        baseline.push_back(report->ClassificationSignature());
      }
    }

    const auto check = [&](const char* schedule, size_t max_retries) {
      ScopedFaultInjection faults(schedule);
      ServiceOptions options;
      options.num_workers = 4;
      options.max_retries = max_retries;
      options.retry_backoff_base_millis = 0.1;
      options.retry_backoff_max_millis = 1.0;
      DebugService service(dataset->db.get(), lattice->get(), &index,
                           options);
      BatchResult batch = service.RunBatch(queries);
      ASSERT_TRUE(batch.status.ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(batch.results[i].status.ok())
            << "seed " << seed << " schedule \"" << schedule << "\" query \""
            << queries[i]
            << "\": " << batch.results[i].status.ToString();
        EXPECT_EQ(batch.results[i].report.ClassificationSignature(),
                  baseline[i])
            << "seed " << seed << " schedule \"" << schedule
            << "\" diverged on \"" << queries[i]
            << "\" (repro: KWSDBG_FUZZ_SEED=" << seed
            << " KWSDBG_CHAOS_FUZZ_ITERS=1)";
      }
    };
    // Counted transient outages, budget provably unexhaustible.
    check(
        "cache.verdict.lookup=unavailable,times=2;"
        "storage.table.read=unavailable,times=2;"
        "executor.join.probe=resource-exhausted,times=2",
        /*max_retries=*/8);
    // Always-on degraded mode.
    check("executor.text_index=unavailable", /*max_retries=*/0);
  }
}

TEST(ChaosTest, LatencyFaultsDelayButNeverChangeVerdicts) {
  testutil::ToyFixture fx;
  const std::vector<std::string> baseline = BaselineSignatures(fx);
  ScopedFaultInjection faults("cache.verdict.lookup=latency,latency=1");
  NonAnswerDebugger debugger(fx.db.get(), fx.lattice.get(), fx.index.get());
  const std::vector<std::string> queries = ToyQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto report = debugger.Debug(queries[i]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->ClassificationSignature(), baseline[i]);
  }
  EXPECT_GT(FaultInjector::Global().TotalFires(), 0u);
}

}  // namespace
}  // namespace kwsdbg
