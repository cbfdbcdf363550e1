// Service-level live writes: relation-scoped verdict eviction in the shared
// verdict tier, warm-cache survival of writes to disjoint relations, the
// const-service write rejection, write counters through stats/JSON, and a
// write-while-querying interleaving (the TSAN target — everything here uses
// a resident catalog; the buffer pool is single-session by design).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <stop_token>
#include <thread>
#include <vector>

#include "debugger/non_answer_debugger.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "test_util.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

// Handpicked toy-vocabulary queries covering all four relations.
std::vector<std::string> ToyQueries() {
  return {"saffron candle", "incense", "golden", "floral", "vanilla"};
}

/// Classification signatures from a fresh serial debugger whose index is
/// rebuilt from the database's CURRENT contents — the ground truth any
/// post-write service run must match (a stale verdict breaks this).
std::vector<std::string> FreshReference(const ToyFixture& fx,
                                        const std::vector<std::string>& qs) {
  const InvertedIndex fresh = InvertedIndex::Build(*fx.db);
  NonAnswerDebugger serial(fx.db.get(), fx.lattice.get(), &fresh);
  std::vector<std::string> sigs;
  for (const std::string& q : qs) {
    auto report = serial.Debug(q);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    sigs.push_back(report->ClassificationSignature());
  }
  return sigs;
}

TEST(LiveMutationTest, ConstServiceRejectsWrites) {
  ToyFixture fx;
  const Database* db = fx.db.get();
  const InvertedIndex* index = fx.index.get();
  DebugService service(db, fx.lattice.get(), index);

  EXPECT_EQ(service.mutator(), nullptr);
  Status s = service.ApplyMutation(
      Mutation::Delete("Color", 0));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  // And the stats stay all-zero on the write counters.
  BatchResult batch = service.RunBatch({"incense"});
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.stats.mutations_applied, 0u);
  EXPECT_EQ(batch.stats.partial_evictions, 0u);
}

TEST(LiveMutationTest, WriteEvictsOnlyBoundRelationsAcrossShards) {
  ToyFixture fx;
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);
  ASSERT_NE(service.mutator(), nullptr);

  // Seed the shared tier with three verdicts: one binding Color, one
  // binding only Attribute, one with an unknown (0) relation mask.
  const uint64_t color_bit =
      RelationFences::BitFor(fx.db->FindTable("Color")->catalog_index());
  const uint64_t attr_bit =
      RelationFences::BitFor(fx.db->FindTable("Attribute")->catalog_index());
  const uint64_t epoch = fx.db->epoch();
  VerdictCache* cache = service.shared_cache();
  cache->Insert("n_color", "sig", epoch, /*relset=*/7, true, color_bit);
  cache->Insert("n_attr", "sig", epoch, /*relset=*/7, true, attr_bit);
  cache->Insert("n_unknown", "sig", epoch, /*relset=*/7, true, 0);

  // A write to Color (existing vocabulary, so the dictionary is stable).
  ASSERT_TRUE(service
                  .ApplyMutation(Mutation::Insert(
                      "Color", {Value(int64_t{9}), Value("red"),
                                Value("crimson")}))
                  .ok());

  // Color-bound and unknown-mask verdicts die...
  EXPECT_FALSE(cache->Lookup("n_color", "sig", epoch, 7).has_value());
  EXPECT_FALSE(cache->Lookup("n_unknown", "sig", epoch, 7).has_value());
  // ...while the Attribute-only verdict survives untouched.
  EXPECT_TRUE(cache->Lookup("n_attr", "sig", epoch, 7).has_value());
  EXPECT_EQ(service.mutator()->stats().partial_evictions.load(), 2u);
}

TEST(LiveMutationTest, WarmCacheSurvivesWriteToDisjointRelation) {
  ToyFixture fx;
  const std::vector<std::string> queries = ToyQueries();
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);

  BatchResult cold = service.RunBatch(queries);
  ASSERT_TRUE(cold.status.ok());
  BatchResult warm = service.RunBatch(queries);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_GT(warm.stats.cache_hits, 0u);

  // One write to Attribute. Verdicts over networks that do not bind
  // Attribute must keep answering from the shared tier.
  ASSERT_TRUE(service
                  .ApplyMutation(Mutation::Update(
                      "Attribute", 2, 2, Value(std::string("striped"))))
                  .ok());

  BatchResult after = service.RunBatch(queries);
  ASSERT_TRUE(after.status.ok());
  EXPECT_GT(after.stats.cache_hits, 0u)
      << "a single-table write must not cold-start the verdict tier";
  EXPECT_EQ(after.stats.mutations_applied, 1u);
  EXPECT_GT(after.stats.partial_evictions + after.stats.index_patches, 0u);

  // Zero stale verdicts: every classification equals a fresh debugger over
  // the mutated database ("floral" changed truth — it is now absent).
  const std::vector<std::string> want = FreshReference(fx, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(after.results[i].status.ok());
    EXPECT_EQ(after.results[i].report.ClassificationSignature(), want[i])
        << queries[i];
  }

  // The write counters surface in the human and JSON renderings.
  EXPECT_NE(after.stats.ToString().find("writes:"), std::string::npos);
  const std::string json = ServiceStatsToJson(after.stats);
  EXPECT_NE(json.find("\"mutations_applied\":1"), std::string::npos);
  EXPECT_NE(json.find("\"partial_evictions\":"), std::string::npos);
  EXPECT_NE(json.find("\"index_patches\":"), std::string::npos);
}

TEST(LiveMutationTest, WriteToOneTableKeepsOtherTablesVerdictsAcrossShards) {
  // End-to-end version of the partial-invalidation contract: warm the
  // shared tier, write to ProductType, and require surviving hits on the
  // rerun of queries that never bind it.
  // The queries must span tables (Color + Attribute) so the traversal
  // evaluates join networks: single-relation nodes answer from the
  // level-1 index shortcut and never touch the verdict tier at all.
  ToyFixture fx;
  const std::vector<std::string> queries = {"golden floral",
                                            "saffron vanilla"};
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);

  (void)service.RunBatch(queries);
  BatchResult warm = service.RunBatch(queries);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_GT(warm.stats.cache_hits, 0u)
      << "warm rerun must answer join-network verdicts from the shared tier";

  ASSERT_TRUE(service
                  .ApplyMutation(Mutation::Insert(
                      "ProductType", {Value(int64_t{4}), Value("oil")}))
                  .ok());

  BatchResult after = service.RunBatch(queries);
  ASSERT_TRUE(after.status.ok());
  EXPECT_GT(after.stats.cache_hits, 0u)
      << "verdicts binding only Color/Attribute/Item networks free of "
         "ProductType must survive a ProductType write";
}

TEST(LiveMutationTest, ConcurrentWritesWhileQuerying) {
  // The TSAN interleaving: one writer thread mutates Color while the main
  // thread runs batches. Resident catalog only (spilled tiers are
  // single-session). Correctness bar: every query OK on every pass, and the
  // final pass matches a fresh rebuild of the world.
  ToyFixture fx;
  const std::vector<std::string> queries = ToyQueries();
  ServiceOptions options;
  options.num_workers = 3;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       options);

  std::atomic<size_t> writes_ok{0};
  // A jthread, so an ASSERT below that returns early still stops and joins
  // the writer before the service it uses is destroyed.
  std::jthread writer([&](std::stop_token stop) {
    size_t i = 0;
    while (!stop.stop_requested()) {
      // Rotate insert / update / delete, always with existing vocabulary.
      Status s;
      if (i % 3 == 0) {
        s = service.ApplyMutation(Mutation::Insert(
            "Color", {Value(static_cast<int64_t>(100 + i)), Value("golden"),
                      Value("yellow")}));
      } else if (i % 3 == 1) {
        s = service.ApplyMutation(Mutation::Update(
            "Color", 1, 2, Value(std::string("lemon"))));
      } else {
        const size_t last = fx.db->FindTable("Color")->num_rows() - 1;
        s = service.ApplyMutation(Mutation::Delete("Color", last));
      }
      if (s.ok()) writes_ok.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });

  // A toy batch takes a few milliseconds, which can be less than the
  // writer's first ApplyMutation takes to return; so batches keep running
  // until kMinWrites writes are acknowledged too, not just kMinPasses
  // passes. The wall-clock bound turns a starved writer into a failure
  // with a message instead of a hang.
  constexpr int kMinPasses = 6;
  constexpr size_t kMinWrites = 12;
  constexpr auto kBound = std::chrono::seconds(30);
  const auto give_up = std::chrono::steady_clock::now() + kBound;
  int passes = 0;
  while (passes < kMinPasses || writes_ok.load() < kMinWrites) {
    if (std::chrono::steady_clock::now() > give_up) break;
    BatchResult batch = service.RunBatch(queries);
    ASSERT_TRUE(batch.status.ok());
    for (const QueryResult& r : batch.results) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
    ++passes;
  }
  writer.request_stop();
  writer.join();
  EXPECT_GE(passes, kMinPasses);
  EXPECT_GE(writes_ok.load(), kMinWrites)
      << "writer starved: " << writes_ok.load() << " acknowledged write(s) "
      << "in " << passes << " passes within " << kBound.count() << " s";
  EXPECT_GT(writes_ok.load(), 0u);

  // Quiesced now: the final batch must agree with a fresh debugger over the
  // mutated database (catches any stale verdict or unpatched index state).
  const std::vector<std::string> want = FreshReference(fx, queries);
  BatchResult final_batch = service.RunBatch(queries);
  ASSERT_TRUE(final_batch.status.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(final_batch.results[i].status.ok());
    EXPECT_EQ(final_batch.results[i].report.ClassificationSignature(),
              want[i])
        << queries[i];
  }
}

}  // namespace
}  // namespace kwsdbg
