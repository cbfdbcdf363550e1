// Service-layer durability: WAL-on-apply, recovery-on-construct (replay +
// index-fingerprint validation), Checkpoint() truncation, Drain() admission
// semantics, kDataLoss surfacing, and the durability counters through
// ServiceStats and JSON.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "debugger/non_answer_debugger.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "test_util.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/kwsdbg_durable_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

ServiceOptions DurableOptions(const std::string& dir,
                              FsyncPolicy policy = FsyncPolicy::kEveryRecord) {
  ServiceOptions options;
  options.num_workers = 2;
  options.durability.dir = dir;
  options.durability.wal.fsync_policy = policy;
  return options;
}

/// The mutation stream every test replays: inserts (one with fresh
/// vocabulary, so the index fingerprint moves), an update, and a delete.
std::vector<Mutation> SampleStream() {
  return {
      Mutation::Insert("Color",
                       {Value(int64_t{50}), Value("red"), Value("walshade")}),
      Mutation::Insert("Attribute",
                       {Value(int64_t{51}), Value("scent"), Value("smoky")}),
      Mutation::Update("Color", 0, 2, Value("rewritten")),
      Mutation::Insert("Color",
                       {Value(int64_t{52}), Value("golden"), Value("pale")}),
      Mutation::Delete("Attribute", 0),
  };
}

/// Classification signatures from a fresh serial debugger whose index is
/// rebuilt from the database's CURRENT contents — recovered state must
/// match this oracle exactly.
std::vector<std::string> OracleSignatures(const Database& db,
                                          const Lattice& lattice,
                                          const std::vector<std::string>& qs) {
  const InvertedIndex fresh = InvertedIndex::Build(db);
  NonAnswerDebugger serial(&db, &lattice, &fresh);
  std::vector<std::string> sigs;
  for (const std::string& q : qs) {
    auto report = serial.Debug(q);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    sigs.push_back(report->ClassificationSignature());
  }
  return sigs;
}

std::vector<std::string> ToyQueries() {
  return {"saffron candle", "incense", "golden", "smoky"};
}

TEST(DurableServiceTest, ConstServiceReportsFailedPrecondition) {
  ToyFixture fx;
  const Database* db = fx.db.get();
  const InvertedIndex* index = fx.index.get();
  DebugService service(db, fx.lattice.get(), index,
                       DurableOptions(FreshDir("const")));
  EXPECT_EQ(service.durability_status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.wal(), nullptr);
  EXPECT_EQ(service.Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Drain().code(), StatusCode::kFailedPrecondition);
}

TEST(DurableServiceTest, MutationsAreLoggedAndReplayedOnRecovery) {
  const std::string dir = FreshDir("replay");
  size_t logged = 0;
  size_t expected_tuples = 0;
  std::vector<std::string> want;

  {
    ToyFixture fx;
    DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                         DurableOptions(dir));
    ASSERT_TRUE(service.durability_status().ok())
        << service.durability_status().ToString();
    ASSERT_NE(service.wal(), nullptr);
    for (const Mutation& m : SampleStream()) {
      ASSERT_TRUE(service.ApplyMutation(m).ok());
    }
    // Every-record policy: the acked stream is durable in full.
    logged = service.wal()->stats().records_appended;
    EXPECT_GE(logged, SampleStream().size());  // + any compaction records.
    EXPECT_EQ(service.wal()->durable_seq(), logged);
    expected_tuples = fx.db->TotalTuples();
    want = OracleSignatures(*fx.db, *fx.lattice, ToyQueries());

    BatchResult batch = service.RunBatch(ToyQueries());
    ASSERT_TRUE(batch.status.ok());
    EXPECT_EQ(batch.stats.wal_records, logged);
    EXPECT_GT(batch.stats.wal_fsyncs, 0u);
    EXPECT_EQ(batch.stats.wal_replayed, 0u);
    const std::string json = ServiceStatsToJson(batch.stats);
    EXPECT_NE(json.find("\"wal_records\":" + std::to_string(logged)),
              std::string::npos);
    EXPECT_NE(json.find("\"checkpoints\":0"), std::string::npos);
  }

  // "Restart": same initial catalog (the toy builder is deterministic),
  // same durability dir. Construction replays the whole log.
  ToyFixture fx;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       DurableOptions(dir));
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();
  EXPECT_EQ(fx.db->TotalTuples(), expected_tuples);

  BatchResult batch = service.RunBatch(ToyQueries());
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.stats.wal_replayed, logged);
  // Recovered state classifies bit-identically to the fresh-rebuild oracle.
  std::vector<std::string> got;
  for (const QueryResult& r : batch.results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    got.push_back(r.report.ClassificationSignature());
  }
  EXPECT_EQ(got, want);
}

TEST(DurableServiceTest, CheckpointTruncatesWalAndRecoversFromSnapshot) {
  const std::string dir = FreshDir("checkpoint");
  size_t expected_tuples = 0;
  uint64_t tail_records = 0;

  {
    ToyFixture fx;
    DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                         DurableOptions(dir));
    ASSERT_TRUE(service.durability_status().ok());
    const std::vector<Mutation> stream = SampleStream();
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(service.ApplyMutation(stream[i]).ok());
    }
    ASSERT_TRUE(service.Checkpoint().ok());
    const uint64_t after_ckpt = service.wal()->next_seq();
    for (size_t i = 3; i < stream.size(); ++i) {
      ASSERT_TRUE(service.ApplyMutation(stream[i]).ok());
    }
    tail_records = service.wal()->next_seq() - after_ckpt;
    expected_tuples = fx.db->TotalTuples();

    BatchResult batch = service.RunBatch({"incense"});
    ASSERT_TRUE(batch.status.ok());
    EXPECT_EQ(batch.stats.checkpoints, 1u);
    // The WAL restarted at the checkpoint boundary.
    EXPECT_EQ(service.wal()->stats().truncations, 1u);
  }

  // Restore the snapshot, rebuild the index from it, and let the service
  // replay only the post-checkpoint suffix.
  auto restored = Database::Recover(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<Database> db = std::move(*restored);
  auto index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*db));
  ToyFixture fx;  // Only for the (content-independent) lattice.
  DebugService service(db.get(), fx.lattice.get(), index.get(),
                       DurableOptions(dir));
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();
  EXPECT_EQ(db->TotalTuples(), expected_tuples);

  BatchResult batch = service.RunBatch({"incense"});
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.stats.wal_replayed, tail_records);
}

TEST(DurableServiceTest, DrainStopsAdmissionAndLeavesEmptyLog) {
  const std::string dir = FreshDir("drain");
  size_t expected_tuples = 0;
  {
    ToyFixture fx;
    DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                         DurableOptions(dir, FsyncPolicy::kGroupCommit));
    ASSERT_TRUE(service.durability_status().ok());
    for (const Mutation& m : SampleStream()) {
      ASSERT_TRUE(service.ApplyMutation(m).ok());
    }
    expected_tuples = fx.db->TotalTuples();
    ASSERT_TRUE(service.Drain().ok());

    // Post-drain: reads, writes, and batches are all refused typed.
    EXPECT_EQ(service.ApplyMutation(SampleStream()[0]).code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(service
                  .Submit("incense", 0, [](QueryResult) {})
                  .code(),
              StatusCode::kUnavailable);
    BatchResult refused = service.RunBatch({"incense"});
    EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
  }

  // A drained service checkpointed everything: recovery restores the
  // snapshot and replays nothing.
  auto restored = Database::Recover(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<Database> db = std::move(*restored);
  EXPECT_EQ(db->TotalTuples(), expected_tuples);
  auto index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*db));
  ToyFixture fx;
  DebugService service(db.get(), fx.lattice.get(), index.get(),
                       DurableOptions(dir));
  ASSERT_TRUE(service.durability_status().ok());
  BatchResult batch = service.RunBatch({"incense"});
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.stats.wal_replayed, 0u);
}

TEST(DurableServiceTest, DrainWaitsForAWriteAdmittedBeforeIt) {
  // A write admitted just before Drain() sets its flag must be waited for
  // (or refused), never checkpointed around: the latency fault holds the
  // write between admission and its relation fence while Drain runs.
  const std::string dir = FreshDir("drain_race");
  size_t tuples_before = 0;
  Status write_status;
  {
    ToyFixture fx;
    DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                         DurableOptions(dir));
    ASSERT_TRUE(service.durability_status().ok());
    tuples_before = fx.db->TotalTuples();
    ScopedFaultInjection faults(
        "storage.mutation.apply=ok,latency=200,times=1");
    std::thread writer(
        [&] { write_status = service.ApplyMutation(SampleStream()[0]); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Status drained = service.Drain();
    writer.join();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
  }

  // An OK write is in the snapshot; a refused one is typed kUnavailable.
  auto restored = Database::Recover(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<Database> db = std::move(*restored);
  if (write_status.ok()) {
    EXPECT_EQ(db->TotalTuples(), tuples_before + 1);
  } else {
    EXPECT_EQ(write_status.code(), StatusCode::kUnavailable)
        << write_status.ToString();
    EXPECT_EQ(db->TotalTuples(), tuples_before);
  }
  // After an OK Drain, recovery replays zero records.
  auto index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*db));
  ToyFixture fx;
  DebugService service(db.get(), fx.lattice.get(), index.get(),
                       DurableOptions(dir));
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();
  BatchResult batch = service.RunBatch({"incense"});
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.stats.wal_replayed, 0u);
}

TEST(DurableServiceTest, OversizedMutationIsRejectedWithoutPoisoning) {
  // A row that encodes past the WAL frame limit must fail BEFORE any
  // in-memory state changes — discovering it at append time, after the
  // table and index were patched, would force a poison.
  const std::string dir = FreshDir("oversized");
  ToyFixture fx;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       DurableOptions(dir));
  ASSERT_TRUE(service.durability_status().ok());
  const size_t before = fx.db->TotalTuples();
  EXPECT_EQ(service
                .ApplyMutation(Mutation::Insert(
                    "Color", {Value(int64_t{90}), Value("huge"),
                              Value(std::string(kWalMaxPayload + 1, 'x'))}))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.db->TotalTuples(), before);  // Nothing applied, no poison:
  EXPECT_TRUE(service.ApplyMutation(SampleStream()[0]).ok());
  EXPECT_TRUE(service.Checkpoint().ok());
}

TEST(DurableServiceTest, WalAppendFailurePoisonsWritesAndCheckpoints) {
  // Once an append fails after its in-memory apply, memory and log have
  // diverged: further writes, checkpoints (which would persist the
  // divergence as truth), and drains must all refuse with kDataLoss.
  const std::string dir = FreshDir("poison");
  ToyFixture fx;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       DurableOptions(dir));
  ASSERT_TRUE(service.durability_status().ok());
  ASSERT_TRUE(service.ApplyMutation(SampleStream()[0]).ok());
  {
    ScopedFaultInjection faults("storage.wal.append=unavailable,times=1");
    EXPECT_EQ(service.ApplyMutation(SampleStream()[1]).code(),
              StatusCode::kDataLoss);
  }
  // The fault is gone, but the poison is permanent.
  EXPECT_EQ(service.ApplyMutation(SampleStream()[3]).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(service.Checkpoint().code(), StatusCode::kDataLoss);
  EXPECT_EQ(service.Drain().code(), StatusCode::kDataLoss);
}

TEST(DurableServiceTest, IndexFingerprintMismatchIsDataLoss) {
  const std::string dir = FreshDir("fingerprint");
  {
    ToyFixture fx;
    DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                         DurableOptions(dir));
    ASSERT_TRUE(service.durability_status().ok());
    // Fresh vocabulary moves the dictionary fingerprint before checkpoint.
    ASSERT_TRUE(service
                    .ApplyMutation(Mutation::Insert(
                        "Color", {Value(int64_t{77}), Value("uniqueword"),
                                  Value("anotherfresh")}))
                    .ok());
    ASSERT_TRUE(service.Checkpoint().ok());
  }

  // "Recovery" over the WRONG catalog: a pristine toy fixture whose rebuilt
  // index cannot match the checkpoint fingerprint. The service must refuse
  // writes instead of compounding the divergence.
  ToyFixture fx;
  DebugService service(fx.db.get(), fx.lattice.get(), fx.index.get(),
                       DurableOptions(dir));
  EXPECT_EQ(service.durability_status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(service
                .ApplyMutation(Mutation::Delete("Color", 0))
                .code(),
            StatusCode::kDataLoss);
  // Reads still serve (degraded but correct for the in-memory state).
  BatchResult batch = service.RunBatch({"incense"});
  EXPECT_TRUE(batch.status.ok());
  // The log never opened; both durability calls give the reason.
  EXPECT_EQ(service.Checkpoint().ToString(),
            service.durability_status().ToString());
  EXPECT_EQ(service.Drain().ToString(),
            service.durability_status().ToString());
}

}  // namespace
}  // namespace kwsdbg
