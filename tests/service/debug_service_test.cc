// Core DebugService behavior: batch execution over the worker pool, the
// process-wide verdict tier, serial-vs-service classification parity under
// every traversal strategy, the asynchronous Submit/WaitIdle path the
// open-loop load harness drives, admission control, deadline-truncated
// reports, and the JSON export. Parity at scale is gated separately by
// bench/service_scale_workload and the differential fuzzer.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datasets/dblife.h"
#include "datasets/ecommerce.h"
#include "datasets/query_generator.h"
#include "debugger/report_json.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "storage/wal.h"
#include "test_util.h"

namespace kwsdbg {
namespace {

std::vector<std::string> ToyQueries() {
  return {"saffron candle", "red candle", "vanilla oil", "scented candle"};
}

TEST(DebugServiceTest, BatchMatchesSerialDebugger) {
  testutil::ToyFixture fx;
  const std::vector<std::string> queries = ToyQueries();

  std::vector<std::string> serial_sigs;
  {
    NonAnswerDebugger serial(fx.db.get(), fx.lattice.get(), fx.index.get());
    for (const std::string& q : queries) {
      auto report = serial.Debug(q);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      serial_sigs.push_back(report->ClassificationSignature());
    }
  }

  ServiceOptions options;
  options.num_workers = 3;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch(queries);
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = batch.results[i];
    EXPECT_EQ(r.keyword_query, queries[i]);  // Input order preserved.
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.report.truncated);
    EXPECT_EQ(r.report.ClassificationSignature(), serial_sigs[i])
        << "query \"" << queries[i] << "\"";
    EXPECT_GE(r.exec_millis, 0.0);
    EXPECT_LT(r.worker, options.num_workers);
  }
  EXPECT_EQ(batch.stats.queries, queries.size());
  EXPECT_EQ(batch.stats.failed, 0u);
  EXPECT_EQ(batch.stats.truncated, 0u);
  EXPECT_GT(batch.stats.wall_millis, 0.0);
  EXPECT_GE(batch.stats.p99_millis, batch.stats.p50_millis);
}

TEST(DebugServiceTest, SharedCacheWarmsAcrossBatches) {
  testutil::ToyFixture fx;
  const std::vector<std::string> queries = ToyQueries();
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);

  BatchResult cold = service.RunBatch(queries);
  ASSERT_EQ(cold.stats.failed, 0u);
  EXPECT_GT(cold.stats.sql_queries, 0u);

  // Identical batch, warm shared tier: every verdict is a cache hit, even
  // though different workers may serve the queries this time.
  BatchResult warm = service.RunBatch(queries);
  ASSERT_EQ(warm.stats.failed, 0u);
  EXPECT_EQ(warm.stats.sql_queries, 0u)
      << "warm batch should answer every verdict from the shared tier";
  EXPECT_GT(warm.stats.cache_hits, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(warm.results[i].report.ClassificationSignature(),
              cold.results[i].report.ClassificationSignature());
  }
}

TEST(DebugServiceTest, DeadlineTruncatesInsteadOfFailing) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 2;
  // A degenerate budget: expired before the first frontier. Every query
  // must still return OK with a (possibly empty) truncated report.
  options.default_deadline_millis = 1e-6;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch(ToyQueries());
  for (const QueryResult& r : batch.results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.report.truncated);
    // Truncation never fabricates verdicts: anything reported must also be
    // reported by an unbounded run (subset check via full run).
  }
  EXPECT_EQ(batch.stats.truncated, batch.stats.queries);

  // The same batch without a deadline completes fully.
  BatchResult full = service.RunBatch(ToyQueries(), /*deadline_millis=*/0);
  for (const QueryResult& r : full.results) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.report.truncated);
  }
}

TEST(DebugServiceTest, TruncatedReportsAreVerdictSubsets) {
  testutil::ToyFixture fx;
  // Serial debugger with an immediate deadline vs. unbounded: the truncated
  // report's answers/non-answers must be a subset of the full ones.
  DebuggerOptions bounded;
  bounded.deadline_millis = 1e-6;
  NonAnswerDebugger truncated_dbg(fx.db.get(), fx.lattice.get(),
                                  fx.index.get(), bounded);
  NonAnswerDebugger full_dbg(fx.db.get(), fx.lattice.get(), fx.index.get());
  for (const std::string& q : ToyQueries()) {
    auto truncated = truncated_dbg.Debug(q);
    auto full = full_dbg.Debug(q);
    ASSERT_TRUE(truncated.ok() && full.ok());
    EXPECT_TRUE(truncated->truncated);
    EXPECT_FALSE(full->truncated);
    EXPECT_LE(truncated->TotalAnswers(), full->TotalAnswers());
    EXPECT_LE(truncated->TotalNonAnswers(), full->TotalNonAnswers());
    // Every network the truncated run classified appears identically in
    // the full run (no fabricated or flipped verdicts).
    for (const auto& interp : truncated->interpretations) {
      for (const auto& ans : interp.answers) {
        bool found = false;
        for (const auto& fi : full->interpretations) {
          for (const auto& fans : fi.answers) {
            if (fi.binding == interp.binding &&
                fans.query.network == ans.query.network) {
              found = true;
            }
          }
        }
        EXPECT_TRUE(found) << "truncated run invented answer "
                           << ans.query.network;
      }
      for (const auto& na : interp.non_answers) {
        bool found = false;
        for (const auto& fi : full->interpretations) {
          for (const auto& fna : fi.non_answers) {
            if (fi.binding == interp.binding &&
                fna.query.network == na.query.network) {
              found = true;
            }
          }
        }
        EXPECT_TRUE(found) << "truncated run invented non-answer "
                           << na.query.network;
      }
    }
  }
}

TEST(DebugServiceTest, JsonExportCarriesServiceFields) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch({"saffron candle"});
  const std::string stats_json = ServiceStatsToJson(batch.stats);
  for (const char* field :
       {"\"queries\":", "\"queries_per_second\":", "\"p50_millis\":",
        "\"p95_millis\":", "\"p99_millis\":", "\"mean_queue_millis\":",
        "\"shared_cache\":"}) {
    EXPECT_NE(stats_json.find(field), std::string::npos) << field;
  }
  const std::string batch_json =
      BatchResultToJson(batch, /*include_reports=*/true);
  for (const char* field : {"\"stats\":", "\"queries\":[", "\"worker\":",
                            "\"queue_millis\":", "\"exec_millis\":",
                            "\"report\":", "\"truncated\":"}) {
    EXPECT_NE(batch_json.find(field), std::string::npos) << field;
  }
  // The per-report JSON path carries the new latency/truncation fields too.
  ASSERT_TRUE(batch.results[0].status.ok());
  const std::string report_json = DebugReportToJson(batch.results[0].report);
  EXPECT_NE(report_json.find("\"debug_millis\":"), std::string::npos);
  EXPECT_NE(report_json.find("\"truncated\":"), std::string::npos);
}

TEST(DebugServiceTest, ConcurrentRunBatchIsRejectedTyped) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  // Race many RunBatch calls: exactly the overlapping ones must come back
  // kInvalidArgument with every per-query slot failed; the rest succeed.
  // (Previously two in-flight batches silently corrupted each other's
  // result vectors.)
  constexpr int kCallers = 4;
  std::atomic<int> ok_batches{0};
  std::atomic<int> rejected_batches{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      BatchResult batch = service.RunBatch(ToyQueries());
      if (batch.status.ok()) {
        ++ok_batches;
        for (const QueryResult& r : batch.results) {
          EXPECT_TRUE(r.status.ok()) << r.status.ToString();
        }
      } else {
        ++rejected_batches;
        EXPECT_EQ(batch.status.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(batch.stats.failed, batch.results.size());
        for (const QueryResult& r : batch.results) {
          EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_GE(ok_batches.load(), 1) << "at least the first batch must run";
  EXPECT_EQ(ok_batches.load() + rejected_batches.load(), kCallers);

  // Sequential batches after the race still work (the in-flight flag was
  // released properly).
  BatchResult after = service.RunBatch(ToyQueries());
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.stats.failed, 0u);
}

TEST(DebugServiceTest, AdmissionControlShedsBeyondQueueDepth) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  // 6 queries against a queue bounded at 2: at least 6 - 2 - (ones a worker
  // dequeued while we were still enqueueing) are shed. Enqueueing happens
  // under one lock, so at least queries.size() - max_queue_depth - 1 shed.
  std::vector<std::string> queries;
  for (int i = 0; i < 6; ++i) {
    auto toy = ToyQueries();
    queries.push_back(toy[static_cast<size_t>(i) % toy.size()]);
  }
  BatchResult batch = service.RunBatch(queries);
  ASSERT_TRUE(batch.status.ok());
  EXPECT_GE(batch.stats.shed, queries.size() - options.max_queue_depth - 1);
  EXPECT_EQ(batch.stats.failed, batch.stats.shed)
      << "shed queries are the only failures";
  size_t shed_seen = 0;
  for (const QueryResult& r : batch.results) {
    if (!r.shed) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      continue;
    }
    ++shed_seen;
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(r.status.IsRetryable())
        << "shed load must be retryable by the caller: "
        << r.status.ToString();
    EXPECT_NE(r.status.message().find("admission control"), std::string::npos);
  }
  EXPECT_EQ(shed_seen, batch.stats.shed);

  // Unbounded (default) never sheds.
  ServiceOptions unbounded;
  unbounded.num_workers = 1;
  DebugService service2(fx.db.get(), fx.lattice.get(), fx.index.get(),
                        unbounded);
  BatchResult all = service2.RunBatch(queries);
  EXPECT_EQ(all.stats.shed, 0u);
  EXPECT_EQ(all.stats.failed, 0u);
}

constexpr TraversalKind kAllStrategies[] = {
    TraversalKind::kBottomUp, TraversalKind::kTopDown,
    TraversalKind::kBottomUpWithReuse, TraversalKind::kTopDownWithReuse,
    TraversalKind::kScoreBased};

/// Serial reference signatures vs. a 4-worker service run, one strategy.
void ExpectParity(const Database* db, const Lattice* lattice,
                  const InvertedIndex* index,
                  const std::vector<std::string>& queries,
                  TraversalKind strategy) {
  DebuggerOptions debugger_options;
  debugger_options.strategy = strategy;

  std::vector<std::string> serial_sigs;
  {
    NonAnswerDebugger serial(db, lattice, index, debugger_options);
    for (const std::string& q : queries) {
      auto report = serial.Debug(q);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      serial_sigs.push_back(report->ClassificationSignature());
    }
  }

  ServiceOptions options;
  options.num_workers = 4;
  options.debugger = debugger_options;
  DebugService service(db, lattice, index, options);
  // Two passes: cold tiers, then warm (verdicts answered from the shared
  // tier) — both must match the serial classifications.
  for (int pass = 0; pass < 2; ++pass) {
    BatchResult batch = service.RunBatch(queries);
    ASSERT_TRUE(batch.status.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryResult& r = batch.results[i];
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(r.report.ClassificationSignature(), serial_sigs[i])
          << TraversalKindName(strategy) << " pass " << pass << " query \""
          << queries[i] << "\"";
    }
  }
}

TEST(ServiceParityTest, EcommerceAllStrategies) {
  EcommerceConfig config;
  config.num_items = 150;
  auto dataset = GenerateEcommerce(config);
  ASSERT_TRUE(dataset.ok());
  InvertedIndex index = InvertedIndex::Build(*dataset->db);
  LatticeConfig lconfig;
  lconfig.max_joins = 2;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(dataset->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  QueryGeneratorConfig gconfig;
  gconfig.min_keywords = 1;
  gconfig.max_keywords = 2;
  RandomQueryGenerator generator(&index, gconfig);
  std::vector<std::string> queries = generator.Batch(6);
  queries.push_back("saffron candle");  // always cover a dead-MTN frontier
  for (TraversalKind strategy : kAllStrategies) {
    ExpectParity(dataset->db.get(), lattice->get(), &index, queries,
                 strategy);
  }
}

TEST(ServiceParityTest, DblifeAllStrategies) {
  auto dataset = GenerateDblife(DblifeConfig{}.Scaled(0.05));
  ASSERT_TRUE(dataset.ok());
  InvertedIndex index = InvertedIndex::Build(*dataset->db);
  LatticeConfig lconfig;
  lconfig.max_joins = 2;  // level-3 lattice
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(dataset->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  QueryGeneratorConfig gconfig;
  gconfig.min_keywords = 2;
  gconfig.max_keywords = 3;
  RandomQueryGenerator generator(&index, gconfig);
  const std::vector<std::string> queries = generator.Batch(6);
  for (TraversalKind strategy : kAllStrategies) {
    ExpectParity(dataset->db.get(), lattice->get(), &index, queries,
                 strategy);
  }
}

TEST(SubmitTest, OpenLoopSubmissionsCompleteAndMatchBatch) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 3;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  const std::vector<std::string> queries = {
      "saffron candle", "red candle", "vanilla oil", "scented candle",
      "saffron candle", "red candle"};

  // Reference signatures from the synchronous path.
  BatchResult reference = service.RunBatch(queries);
  ASSERT_TRUE(reference.status.ok());

  std::atomic<size_t> completions{0};
  std::vector<QueryResult> results(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Status accepted = service.Submit(
        queries[i], /*deadline_millis=*/0, [&results, &completions, i](QueryResult r) {
          results[i] = std::move(r);
          completions.fetch_add(1);
        });
    ASSERT_TRUE(accepted.ok()) << accepted.ToString();
  }
  service.WaitIdle();
  ASSERT_EQ(completions.load(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_EQ(results[i].report.ClassificationSignature(),
              reference.results[i].report.ClassificationSignature())
        << "Submit and RunBatch disagree on \"" << queries[i] << "\"";
  }
}

TEST(SubmitTest, OverloadedShardShedsWithRetryableStatus) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  std::atomic<size_t> completions{0};
  size_t accepted = 0;
  size_t shed = 0;
  constexpr size_t kSubmits = 200;
  for (size_t i = 0; i < kSubmits; ++i) {
    const Status s = service.Submit(
        "saffron candle", /*deadline_millis=*/0,
        [&completions](QueryResult) { completions.fetch_add(1); });
    if (s.ok()) {
      ++accepted;
    } else {
      ++shed;
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(s.IsRetryable());
      EXPECT_NE(s.message().find("admission control"), std::string::npos);
    }
  }
  service.WaitIdle();
  EXPECT_EQ(accepted + shed, kSubmits);
  EXPECT_EQ(completions.load(), accepted)
      << "done must run exactly once per accepted submit, never for shed";
  EXPECT_GT(shed, 0u)
      << "a depth-1 queue on one worker cannot absorb a 200-submit burst";
}

TEST(DebugServiceTest, JsonCarriesResilienceFields) {
  testutil::ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 1;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  BatchResult batch = service.RunBatch({"saffron candle"});
  const std::string stats_json = ServiceStatsToJson(batch.stats);
  for (const char* field :
       {"\"retries\":", "\"shed\":", "\"index_fallbacks\":"}) {
    EXPECT_NE(stats_json.find(field), std::string::npos) << field;
  }
  const std::string batch_json =
      BatchResultToJson(batch, /*include_reports=*/false);
  for (const char* field : {"\"ok\":true", "\"retries\":", "\"shed\":"}) {
    EXPECT_NE(batch_json.find(field), std::string::npos) << field;
  }
}

// Pushes every toy table through a buffer pool of 512-byte pages and the
// posting lists onto disk: the out-of-core tier, which is single-session.
void SpillToy(testutil::ToyFixture* fx) {
  SpillOptions spill;
  spill.page_size = 512;
  ASSERT_TRUE(fx->db->ApplyMemoryBudget(1, spill).ok());
  ASSERT_TRUE(fx->db->AnySpilled());
  ASSERT_TRUE(fx->index->SpillToDisk("", /*cache_lists=*/8).ok());
}

TEST(DebugServiceTest, SpilledEngineRejectsMultipleWorkers) {
  testutil::ToyFixture fx;
  SpillToy(&fx);
  ServiceOptions options;
  options.num_workers = 2;
  const Database* db = fx.db.get();
  const InvertedIndex* index = fx.index.get();
  DebugService service(db, fx.lattice.get(), index, options);
  EXPECT_EQ(service.storage_status().code(), StatusCode::kFailedPrecondition);

  BatchResult batch = service.RunBatch(ToyQueries());
  ASSERT_TRUE(batch.status.ok());
  for (const QueryResult& r : batch.results) {
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition)
        << r.keyword_query;
  }
  EXPECT_EQ(batch.stats.failed, ToyQueries().size());
  // Nothing touched the pool: the refusal comes before any query runs.
  EXPECT_EQ(fx.db->storage_stats().page_hits, 0u);
}

TEST(DebugServiceTest, SpilledEngineRejectsWritePath) {
  testutil::ToyFixture fx;
  SpillToy(&fx);
  ServiceOptions options;
  options.num_workers = 1;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  ASSERT_NE(service.mutator(), nullptr);
  EXPECT_EQ(service.storage_status().code(), StatusCode::kFailedPrecondition);

  BatchResult batch = service.RunBatch({"saffron candle"});
  ASSERT_EQ(batch.results.size(), 1u);
  EXPECT_EQ(batch.results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service
                .ApplyMutation(Mutation::Update(
                    "Attribute", 2, 2, Value(std::string("striped"))))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(batch.stats.mutations_applied, 0u);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Every row of every table, read through the pool.
std::vector<Tuple> RowsOf(const Database& db) {
  std::vector<Tuple> rows;
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    for (size_t r = 0; r < t->num_rows(); ++r) rows.push_back(t->row(r));
  }
  return rows;
}

// Every posting list, in Terms() order, read through the posting store.
std::vector<std::vector<Posting>> PostingsOf(const InvertedIndex& index) {
  std::vector<std::vector<Posting>> postings;
  for (const std::string& term : index.Terms()) {
    postings.push_back(index.PostingsFor(term));
  }
  return postings;
}

// A service that refuses a spilled engine never runs recovery: the logged
// write is not replayed into the read-only tables, the log is not reopened
// or chopped, and the write path and both durability calls fail typed.
TEST(DebugServiceTest, SpilledEngineLeavesDurabilityDirAlone) {
  const std::string dir = testing::TempDir() + "/kwsdbg_spilled_durability";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal_path = dir + "/wal.log";
  {
    auto wal = WalWriter::Open(wal_path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)
                    ->AppendMutation(Mutation::Update(
                        "Attribute", 2, 2, Value(std::string("striped"))))
                    .ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  const std::string log = FileBytes(wal_path);
  ASSERT_FALSE(log.empty());

  testutil::ToyFixture fx;
  SpillToy(&fx);
  const std::vector<Tuple> rows = RowsOf(*fx.db);
  const std::vector<std::vector<Posting>> postings = PostingsOf(*fx.index);
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.durability.dir = dir;
    DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                         options);
    EXPECT_EQ(service.storage_status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.durability_status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.wal(), nullptr);
    EXPECT_EQ(service
                  .ApplyMutation(Mutation::Update(
                      "Attribute", 2, 2, Value(std::string("dotted"))))
                  .code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.Checkpoint().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.Drain().code(), StatusCode::kFailedPrecondition);
    // Both name the refusal, not a missing durability dir.
    EXPECT_EQ(service.Checkpoint().ToString(),
              service.durability_status().ToString());
    EXPECT_EQ(service.Drain().ToString(),
              service.durability_status().ToString());
  }
  EXPECT_EQ(FileBytes(wal_path), log);
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "wal.log");
    ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_EQ(RowsOf(*fx.db), rows);
  EXPECT_EQ(PostingsOf(*fx.index), postings);
  std::filesystem::remove_all(dir);
}

TEST(DebugServiceTest, SpilledEngineServesOneConstWorker) {
  const std::vector<std::string> queries = ToyQueries();
  testutil::ToyFixture fx;
  SpillToy(&fx);
  const Database* db = fx.db.get();
  const InvertedIndex* index = fx.index.get();

  std::vector<std::string> serial_sigs;
  {
    NonAnswerDebugger serial(db, fx.lattice.get(), index);
    for (const std::string& q : queries) {
      auto report = serial.Debug(q);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      serial_sigs.push_back(report->ClassificationSignature());
    }
  }

  ServiceOptions options;
  options.num_workers = 1;
  DebugService service(db, fx.lattice.get(), index, options);
  EXPECT_TRUE(service.storage_status().ok());
  BatchResult batch = service.RunBatch(queries);
  ASSERT_TRUE(batch.status.ok());
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = batch.results[i];
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.report.ClassificationSignature(), serial_sigs[i])
        << "query \"" << queries[i] << "\"";
  }
  EXPECT_GT(batch.stats.page_hits + batch.stats.page_reads, 0u);
}

}  // namespace
}  // namespace kwsdbg
