// The shared verdict tier must never serve a stale verdict across a
// database mutation: verdicts are keyed by Database::epoch(), the epoch is
// captured *before* evaluation (see QueryEvaluator::IsAlive), and a
// mutation + BumpEpoch() between batches invalidates every cached verdict
// for the old contents. This test races concurrent readers against a
// writer that toggles a cell and bumps the epoch: every reader must see
// the verdict matching the epoch it read under — ground truth, never a
// cached leftover from the other parity. Run it under TSAN (see
// tests/run_sanitizers.sh) to also prove the locking discipline.
//
// Synchronization model (mirrors the DebugService contract): readers hold
// a shared lock while evaluating, the writer mutates + bumps under the
// exclusive lock — data and epoch always change atomically together.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "kws/keyword_binding.h"
#include "kws/pruned_lattice.h"
#include "lattice/canonical_label.h"
#include "sql/executor.h"
#include "test_util.h"
#include "traversal/evaluator.h"
#include "traversal/verdict_cache.h"

namespace kwsdbg {
namespace {

/// The Color row-0 synonyms cell with/without the marker keyword. The
/// marker occurs nowhere else in the toy database, so the aliveness of the
/// Color^marker node tracks the toggle exactly.
constexpr char kMarker[] = "zanzibar";
constexpr char kBaseSynonyms[] = "crimson, orange";

/// Finds the level-1 retained node for Color copy 1 (the node whose verdict
/// the toggle flips).
NodeId FindColorNode(const testutil::ToyFixture& fx, const PrunedLattice& pl) {
  for (NodeId n : pl.retained()) {
    const LatticeNode& node = fx.lattice->node(n);
    if (node.level != 1) continue;
    const RelationCopy v = node.tree.vertex(0);
    if (v.relation == fx.color && v.copy == 1) return n;
  }
  ADD_FAILURE() << "no retained Color^1 node";
  return kInvalidNode;
}

TEST(SharedCacheEpochTest, ConcurrentReadersNeverSeeStaleVerdicts) {
  testutil::ToyFixture fx;
  Table* color_table = fx.db->FindTable("Color");
  ASSERT_NE(color_table, nullptr);
  auto syn_col = color_table->schema().ColumnIndex("synonyms");
  ASSERT_TRUE(syn_col.ok());

  KeywordBinding binding({{kMarker, {fx.color, 1}}});
  PrunedLattice pl = PrunedLattice::Build(*fx.lattice, binding);
  const NodeId node = FindColorNode(fx, pl);
  ASSERT_NE(node, kInvalidNode);

  VerdictCache shared_cache;
  std::shared_mutex db_mu;
  // Writer-priority gate: glibc's rwlock prefers readers, and four readers
  // re-acquiring in a tight loop can starve the writer forever. Readers
  // back off while a toggle is pending.
  std::atomic<bool> writer_waiting{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> reads{0};
  // The fixture's builder has already bumped the epoch; parity is relative.
  const uint64_t initial_epoch = fx.db->epoch();

  // Invariant maintained by the writer: marker present iff an odd number of
  // toggles has been applied.
  const size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      // Per-reader SQL session (LIKE-scan path reads the live table); the
      // verdict tier is the shared one.
      Executor executor(fx.db.get());
      EvalOptions eval;
      eval.base_nodes_via_index = false;  // Force SQL, not the static index.
      QueryEvaluator evaluator(fx.db.get(), &executor, &pl, fx.index.get(),
                               eval, &shared_cache);
      while (!stop.load(std::memory_order_acquire)) {
        if (writer_waiting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
          continue;
        }
        std::shared_lock<std::shared_mutex> lock(db_mu);
        const uint64_t epoch = fx.db->epoch();
        const bool expected = ((epoch - initial_epoch) % 2 == 1);
        auto alive = evaluator.IsAlive(node);
        if (!alive.ok() || *alive != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: toggle the marker in and out, bumping the epoch each time.
  // Between toggles, wait (bounded) for the readers to make progress so the
  // epochs actually interleave with evaluations instead of racing past
  // them before the reader threads are scheduled.
  const size_t kToggles = 100;
  for (size_t t = 0; t < kToggles; ++t) {
    // Let the readers observe the current epoch before flipping again.
    const size_t reads_before = reads.load(std::memory_order_relaxed);
    for (int spin = 0; spin < 20000; ++spin) {
      if (reads.load(std::memory_order_relaxed) > reads_before) break;
      std::this_thread::yield();
    }
    writer_waiting.store(true, std::memory_order_release);
    {
      std::unique_lock<std::shared_mutex> lock(db_mu);
      const bool inserting = (fx.db->epoch() - initial_epoch) % 2 == 0;
      const std::string next =
          inserting ? std::string(kBaseSynonyms) + ", " + kMarker
                    : std::string(kBaseSynonyms);
      ASSERT_TRUE(color_table->SetValue(0, *syn_col, Value(next)).ok());
      fx.db->BumpEpoch();
    }
    writer_waiting.store(false, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << "a reader observed a verdict inconsistent with its epoch";
  EXPECT_GT(reads.load(), 0u);
  // The cache was actually exercised across epochs, not bypassed.
  const VerdictCacheStats stats = shared_cache.stats();
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(SharedCacheEpochTest, BumpEpochInvalidatesWithoutClear) {
  testutil::ToyFixture fx;
  Table* color_table = fx.db->FindTable("Color");
  ASSERT_NE(color_table, nullptr);
  auto syn_col = color_table->schema().ColumnIndex("synonyms");
  ASSERT_TRUE(syn_col.ok());

  KeywordBinding binding({{kMarker, {fx.color, 1}}});
  PrunedLattice pl = PrunedLattice::Build(*fx.lattice, binding);
  const NodeId node = FindColorNode(fx, pl);

  VerdictCache shared_cache;
  Executor executor(fx.db.get());
  EvalOptions eval;
  eval.base_nodes_via_index = false;
  QueryEvaluator evaluator(fx.db.get(), &executor, &pl, fx.index.get(), eval,
                           &shared_cache);

  // Pre-mutation epoch: marker absent -> dead, verdict cached.
  const uint64_t initial_epoch = fx.db->epoch();
  auto before = evaluator.IsAlive(node);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(*before);

  // Mutate + bump. No Clear(): the key's epoch component is the invalidation.
  ASSERT_TRUE(color_table
                  ->SetValue(0, *syn_col,
                             Value(std::string(kBaseSynonyms) + ", " + kMarker))
                  .ok());
  fx.db->BumpEpoch();
  EXPECT_NE(fx.db->epoch(), initial_epoch);

  auto after = evaluator.IsAlive(node);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(*after) << "stale pre-mutation verdict served after BumpEpoch";

  // The old-epoch verdict is still present (LRU-bounded, no Clear() ran —
  // both verdicts are resident, nothing was evicted), just unreachable from
  // the new epoch. The entry is keyed by the evaluator's relation-set
  // fingerprint as well, so it cannot be addressed from here with a bare
  // (canonical, sig, epoch) probe; residency is asserted via the counters.
  const VerdictCacheStats stats = shared_cache.stats();
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

}  // namespace
}  // namespace kwsdbg
