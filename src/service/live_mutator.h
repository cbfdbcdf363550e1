// Live-data write path: one mutation = one table change + incremental
// maintenance of every derived structure, applied under the mutated
// relation's write fence (storage/relation_fences.h) so it interleaves
// safely with in-flight queries over other relations.
//
// Per Apply():
//   1. the table row is appended / tombstoned / updated in place;
//   2. the shared InvertedIndex posting lists, selectivity profile, and
//      table masks are patched (never rebuilt) — under the exclusive index
//      gate, since a term's posting vector spans tables;
//   3. every registered flat-index tier patches its cached arenas in
//      place and restamps them to the table's new data epoch, so worker
//      probes stay warm across the write;
//   4. every registered verdict cache evicts exactly the verdicts
//      whose relation mask includes the mutated table (partial
//      invalidation — verdicts over disjoint relations survive);
//   5. once tombstones pass `auto_compact_fraction`, the table is compacted
//      and the posting lists remapped to the new row ids.
//
// The global Database::epoch() is never bumped: only the mutated table's
// data epoch moves, which is what keeps unrelated caches warm.
#ifndef KWSDBG_SERVICE_LIVE_MUTATOR_H_
#define KWSDBG_SERVICE_LIVE_MUTATOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/flat_row_index.h"
#include "storage/database.h"
#include "storage/relation_fences.h"
#include "storage/wal.h"  // Mutation lives with the WAL that logs it.
#include "text/inverted_index.h"
#include "traversal/verdict_cache.h"

namespace kwsdbg {

/// Write-path counters (thread-safe; exported through ServiceStats and
/// service JSON alongside the read-side counters).
struct MutationStats {
  std::atomic<uint64_t> mutations_applied{0};  ///< Successful Apply() calls.
  std::atomic<uint64_t> partial_evictions{0};  ///< Verdicts evicted by
                                               ///< relation-scoped masks.
  std::atomic<uint64_t> index_patches{0};      ///< Posting-list + flat-arena
                                               ///< patches applied in place.
  std::atomic<uint64_t> compactions{0};        ///< Tombstone compactions.
};

/// Mutator configuration.
struct MutatorOptions {
  /// Compact a table once its tombstone fraction exceeds this (0 disables).
  /// Compaction is skipped while the inverted index is spilled — on-disk
  /// posting lists cannot be remapped in place.
  double auto_compact_fraction = 0.25;
};

/// The single-writer mutation engine. Thread-safe: Apply() serializes
/// against concurrent Apply() calls and against in-flight queries through
/// the relation fences (pass the same fences into EvalOptions::fences).
/// Registered caches/tiers must outlive the mutator.
class LiveMutator {
 public:
  LiveMutator(Database* db, InvertedIndex* index, RelationFences* fences,
              MutatorOptions options = {})
      : db_(db), index_(index), fences_(fences), options_(options) {}

  /// Partial-invalidation sinks: every registered verdict cache takes an
  /// EvictRelations() per write; every flat tier is patched in place.
  void RegisterVerdictCache(VerdictCache* cache) { caches_.push_back(cache); }
  void RegisterFlatTier(SharedFlatRowIndexManager* tier) {
    tiers_.push_back(tier);
  }

  /// Durability hook: every Apply() that changes in-memory state appends a
  /// record to `wal` before acknowledging (write-ahead with respect to the
  /// caller, not the memory image — recovery replays the log over the last
  /// checkpoint). If an append fails *after* the in-memory apply, the
  /// mutator poisons itself: memory and log have diverged, and accepting
  /// more writes would make recovery silently wrong. The WAL must outlive
  /// the mutator.
  void AttachWal(WalWriter* wal) { wal_ = wal; }
  WalWriter* wal() const { return wal_; }
  bool wal_poisoned() const {
    return wal_poisoned_.load(std::memory_order_acquire);
  }

  /// Applies one mutation atomically with respect to readers: either the
  /// table, the text index, and every flat tier reflect the write (and the
  /// affected verdicts are gone), or — on a validation failure or an
  /// injected `storage.mutation.apply` fault — nothing changed.
  Status Apply(const Mutation& m);

  /// Replays one WAL record during recovery: mutations re-apply without
  /// re-logging, and compactions run exactly where the log says they ran
  /// (auto-compaction is suppressed so replay follows the original
  /// schedule record for record — Table::Compact is deterministic, so the
  /// row-id remap comes out identical).
  Status ApplyRecord(const WalRecord& record);

  const MutationStats& stats() const { return stats_; }
  RelationFences* fences() const { return fences_; }

 private:
  /// Shared body of Apply/ApplyRecord; `logging` gates both the WAL append
  /// and the auto-compaction trigger.
  Status ApplyInternal(const Mutation& m, bool logging);
  /// Patches the text index for one applied table change; counts patches.
  /// A failure here rolls the table change back before returning.
  Status PatchTextIndex(const Mutation& m, Table* t, uint32_t row,
                        const Value& old_value, size_t* patches);

  /// Compacts `t` when tombstones exceed the threshold (resident index
  /// only); remaps posting lists and drops the flat indexes over `t`.
  /// When `logging`, a kCompact record is appended so replay compacts at
  /// the same stream position.
  Status MaybeCompact(Table* t, bool logging);

  /// The compaction body shared by MaybeCompact and kCompact replay.
  Status CompactNow(Table* t);

  Database* db_;
  InvertedIndex* index_;  ///< May be null (no text index to maintain).
  RelationFences* fences_;
  MutatorOptions options_;
  std::vector<VerdictCache*> caches_;
  std::vector<SharedFlatRowIndexManager*> tiers_;
  MutationStats stats_;
  WalWriter* wal_ = nullptr;  ///< Null = run without durability.
  /// Atomic: set under one relation's write fence but read by concurrent
  /// Apply() calls on *other* relations, which hold different fences.
  std::atomic<bool> wal_poisoned_{false};
};

}  // namespace kwsdbg

#endif  // KWSDBG_SERVICE_LIVE_MUTATOR_H_
