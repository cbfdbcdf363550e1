// The executor's probe engine: cache-conscious join-column indexes.
//
// `FlatRowIndex` is an open-addressing, power-of-two, linear-probing hash
// table over 64-bit type-tagged key hashes (storage/value.h Hash64). Row ids
// live in one contiguous uint32_t arena — one run per distinct key, rows
// ascending — instead of per-key vectors, so a probe is: one bucket cache
// line, one verification cell, one arena run.
// Hash collisions are resolved DRAMHiT-style by verifying the probe value
// against the indexed column itself (the run's first row is the
// representative), which keeps buckets at 16 bytes with no stored keys and
// makes lookups exact for every value type, including strings.
// Verification rule for integer keys: Value::Hash64 of an int64 is a
// bijection of the integer, so while every key the index holds is an int64
// (tracked by Build and ApplyInsert; int_keys()), an int64 probe whose hash
// matches a bucket *is* that bucket's key and no row is read — on a spilled
// table that is one page access saved per probe. Double, string and mixed
// probes, and every probe once a non-int64 key was inserted, still verify.
//
// The bucket array and the arena are the only allocations, both contiguous,
// so callers can hide DRAM latency with software prefetching: hash a window
// of upcoming probe keys, PrefetchBucket() each, then drain the window in
// order (see Executor::RunJoin's batched probe pipeline).
//
// Live writes patch an index in place instead of discarding it: ApplyInsert
// extends or relocates one run (bucket tombstones keep probe chains intact,
// relocated runs leave arena garbage that CompactArena reclaims past a 25%
// threshold), ApplyDelete removes a row by hash-probe + in-run binary search
// (membership is definitive — a row has one value per column — so it works
// even after the cell was blanked). Lookup results always equal a
// from-scratch rebuild; only the internal layout differs.
#ifndef KWSDBG_SQL_FLAT_ROW_INDEX_H_
#define KWSDBG_SQL_FLAT_ROW_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "storage/table.h"

namespace kwsdbg {

/// A borrowed, immutable run of row ids (a view into the index arena or any
/// other contiguous row-id storage). Never owns; valid while the owner lives.
struct RowSpan {
  const uint32_t* data = nullptr;
  uint32_t count = 0;

  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + count; }
  uint32_t operator[](size_t i) const { return data[i]; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }

  static RowSpan Of(const std::vector<uint32_t>& v) {
    return RowSpan{v.data(), static_cast<uint32_t>(v.size())};
  }
};

/// Per-index build/shape statistics (ursadb-profile-style cheap metadata:
/// knowing the worst run and the key count up front lets callers order and
/// batch probes without touching the table).
struct FlatIndexStats {
  double build_millis = 0;   ///< Wall time of Build().
  size_t distinct_keys = 0;  ///< Occupied buckets (= live arena runs).
  size_t max_run_length = 0; ///< Longest row run seen (high-water mark).
  size_t arena_bytes = 0;    ///< Row-id arena allocation.
  size_t bucket_bytes = 0;   ///< Bucket-array allocation.
};

/// value -> row-id run for one (table, column). NULL cells are not indexed
/// (SQL equality never matches NULL). Lookup uses structural equality
/// (Value::operator==).
class FlatRowIndex {
 public:
  /// Hash of one bucket slot: 64-bit key hash + [run_begin, run_begin+len)
  /// into the arena. len == 0 marks an empty slot (a real run has >= 1 row):
  /// run_begin == kTombstoneSlot distinguishes a deleted bucket (probe
  /// chains continue through it) from a never-used one (probes stop).
  struct Bucket {
    uint64_t hash = 0;
    uint32_t run_begin = 0;
    uint32_t run_len = 0;
  };
  static_assert(sizeof(Bucket) == 16, "bucket must stay two per cache line");

  static constexpr uint32_t kTombstoneSlot = 0xFFFFFFFFu;

  static FlatRowIndex Build(const Table& table, size_t column);

  /// Rows whose column structurally equals `v`, ascending. NULL probes and
  /// misses return an empty span.
  RowSpan Lookup(const Value& v) const {
    if (v.is_null()) return RowSpan{};
    return LookupHashed(v.Hash64(), v);
  }

  /// Lookup with the key hash already computed (the executor's batched
  /// probe pipeline hashes a window ahead of the drain and probes with
  /// those hashes). `hash` must equal `v.Hash64()`; `v` must not be NULL.
  RowSpan LookupHashed(uint64_t hash, const Value& v) const;

  /// Prefetches the bucket cache line a probe for `hash` starts at. The
  /// DRAMHiT trick: issued a window ahead, the dependent load in
  /// LookupHashed hits L1/L2 instead of DRAM.
  void PrefetchBucket(uint64_t hash) const {
    if (!buckets_.empty()) {
      __builtin_prefetch(&buckets_[hash & mask_], /*rw=*/0, /*locality=*/1);
    }
  }

  /// Patches the index after `row` gained value `v` in the indexed column
  /// (append, or the new value of an update). The table must already hold
  /// `v` at (row, column) — run verification reads it. NULL is a no-op.
  /// Invalidates previously returned RowSpans (the arena may reallocate).
  void ApplyInsert(uint32_t row, const Value& v);

  /// Removes `row` from the run of `old_value` (the pre-mutation cell
  /// value). Works before or after the cell is blanked/overwritten: the row
  /// is located by hash + in-run binary search, never by reading the cell.
  /// Returns false when (old_value, row) was not indexed (NULL cells).
  /// Invalidates previously returned RowSpans.
  bool ApplyDelete(uint32_t row, const Value& old_value);

  const FlatIndexStats& stats() const { return stats_; }
  size_t num_keys() const { return stats_.distinct_keys; }
  size_t capacity() const { return buckets_.size(); }
  /// True while every key ever indexed is an int64: int64 probes then match
  /// on the hash alone (see the verification rule above). Deletes never
  /// turn it back on.
  bool int_keys() const { return int_keys_; }

 private:
  /// Rebuilds the bucket array at `new_capacity` from the live buckets
  /// (hash-only re-placement; the arena is untouched). Drops tombstones.
  void Rehash(uint64_t new_capacity);

  /// Rewrites the arena without garbage slots once they exceed 25% of it.
  void MaybeCompactArena();

  /// True iff the bucket whose hash equals `v`'s holds `v`: by the hash
  /// alone for an int64 probe into an int64-only index, else by reading the
  /// run's representative row.
  bool KeyMatches(const Bucket& b, const Value& v) const {
    return (int_keys_ && v.is_int()) ||
           table_->at(arena_[b.run_begin], column_) == v;
  }

  const Table* table_ = nullptr;
  size_t column_ = 0;
  uint64_t mask_ = 0;               ///< buckets_.size() - 1 (power of two).
  std::vector<Bucket> buckets_;
  std::vector<uint32_t> arena_;     ///< All runs, back to back.
  size_t garbage_ = 0;              ///< Dead arena slots (relocated runs).
  size_t tombstones_ = 0;           ///< Deleted buckets still in chains.
  bool int_keys_ = true;            ///< Every indexed key is an int64.
  FlatIndexStats stats_;
};

/// Lazy cache of FlatRowIndex instances keyed by (table, column).
class FlatRowIndexManager {
 public:
  const FlatRowIndex& GetOrBuild(const Table* table, size_t column);

  void Clear() { cache_.clear(); }

  /// Drops only the indexes over `table` (relation-scoped invalidation
  /// after a write); returns how many were dropped.
  size_t EraseTable(const Table* table);

  size_t num_indexes() const { return cache_.size(); }

 private:
  std::unordered_map<std::pair<const Table*, size_t>,
                     std::unique_ptr<FlatRowIndex>, PairHash>
      cache_;
};

/// Thread-safe, epoch-aware flat-index tier shared by the workers of a
/// DebugService (see service/debug_service.h), so the pool builds each
/// index once instead of once per worker session. Indexes are held
/// behind stable pointers, so the returned reference outlives the lock; the
/// mutex only serializes the map lookup and the (rare) build or patch.
///
/// Invalidation is two-level. The database epoch still clears everything
/// lazily (legacy BumpEpoch between batches). Independently, every entry is
/// stamped with its table's data epoch: LiveMutator patches cached indexes
/// in place under the relation write fence and restamps them, so worker
/// probes stay warm across writes; an entry whose stamp mismatches (a
/// compaction, or a mutation that could not be patched) is rebuilt on the
/// next GetOrBuild. Safe without quiescence because mutating calls run under
/// the exclusive index gate (storage/relation_fences.h) while every probe
/// holds it shared — references never dangle mid-evaluation.
class SharedFlatRowIndexManager {
 public:
  /// The index for (table, column), built on first use. `built` (optional)
  /// is set to whether *this call* built it, so only the building session
  /// accounts the build cost into its ExecutorStats.
  const FlatRowIndex& GetOrBuild(const Table* table, size_t column,
                                 uint64_t epoch, bool* built = nullptr);

  /// In-place patches of every cached index over `table` after one
  /// mutation, restamping them to the table's (already bumped) data epoch.
  /// `old_row` / `old_value` carry pre-mutation values. Return the number
  /// of index patches applied.
  size_t ApplyRowInsert(const Table* table, uint32_t row);
  size_t ApplyRowDelete(const Table* table, uint32_t row,
                        const Tuple& old_row);
  size_t ApplyCellUpdate(const Table* table, uint32_t row, size_t column,
                         const Value& old_value);

  /// Drops the indexes over `table` (used after compaction, where row ids
  /// shift and patching is meaningless); returns how many were dropped.
  size_t EraseTable(const Table* table);

  void Clear();
  size_t num_indexes() const;

 private:
  struct Entry {
    std::unique_ptr<FlatRowIndex> index;
    uint64_t table_epoch = 0;
  };

  const FlatRowIndex& GetOrBuildLocked(const Table* table, size_t column,
                                       bool* built);

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;  // guarded by mu_
  std::unordered_map<std::pair<const Table*, size_t>, Entry, PairHash>
      cache_;  // guarded by mu_
};

}  // namespace kwsdbg

#endif  // KWSDBG_SQL_FLAT_ROW_INDEX_H_
