// Cross-query verdict cache for node aliveness (the system-level extension
// of the paper's intra-query reuse, rules R1/R2): the truth of "does this
// join network return a tuple?" depends only on the network's shape, the
// keywords bound to its copies, and the database contents. Keying verdicts
// by (canonical node label, keyword-binding signature, database epoch, and a
// relation-set fingerprint over the per-table data epochs of the relations
// the network binds) lets a session skip the SQL entirely when the same
// sub-query recurs — across interpretations of one query, across repeated
// queries, and across the workers of a DebugService — while a live write to
// one table invalidates only the verdicts that bound it: unrelated verdicts
// keep matching because their fingerprint omits the mutated table's epoch.
// Thread-safe (sharded LRU inside).
#ifndef KWSDBG_TRAVERSAL_VERDICT_CACHE_H_
#define KWSDBG_TRAVERSAL_VERDICT_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/hash.h"
#include "common/lru_cache.h"

namespace kwsdbg {

/// Composite cache key. The canonical label (Algorithm 2) identifies the
/// join network up to isomorphism; the binding signature pins which keyword
/// each copy carries; the epoch invalidates verdicts on catalog-level
/// mutation; the relation-set fingerprint (a hash over the bound tables'
/// (catalog index, data epoch) pairs) invalidates them on per-table writes.
struct VerdictKey {
  std::string canonical;    ///< CanonicalLabel of the node's join tree.
  std::string binding_sig;  ///< KeywordBinding::Signature().
  uint64_t epoch = 0;       ///< Database::epoch() at evaluation time.
  uint64_t relset = 0;      ///< Fingerprint of the bound tables' data epochs.

  bool operator==(const VerdictKey&) const = default;
};

struct VerdictKeyHash {
  size_t operator()(const VerdictKey& k) const {
    size_t seed = std::hash<std::string>{}(k.canonical);
    HashCombine(&seed, std::hash<std::string>{}(k.binding_sig));
    HashCombine(&seed, std::hash<uint64_t>{}(k.epoch));
    HashCombine(&seed, std::hash<uint64_t>{}(k.relset));
    return seed;
  }
};

/// Cached payload: the verdict plus the relation mask (bit = catalog index,
/// >= 63 collapse onto bit 63) of the tables it depends on, so
/// EvictRelations can drop exactly the entries a write touches.
struct VerdictValue {
  bool alive = false;
  uint64_t rel_mask = 0;
};

/// Point-in-time counters (see LruCacheStats for field semantics).
using VerdictCacheStats = LruCacheStats;

/// Aliveness memo shared by the evaluators of one session, or of every
/// DebugService worker.
class VerdictCache {
 public:
  /// `capacity` bounds resident verdicts; entries are ~100 bytes each.
  explicit VerdictCache(size_t capacity = kDefaultCapacity,
                        size_t num_shards = 8);

  /// The verdict recorded for this (node, binding, epoch, relation
  /// fingerprint), if any. A stale fingerprint simply misses: the entry it
  /// would have matched dies by EvictRelations or LRU aging.
  std::optional<bool> Lookup(const std::string& canonical,
                             const std::string& binding_sig, uint64_t epoch,
                             uint64_t relset = 0);

  /// Records a verdict computed by SQL evaluation. `rel_mask` names the
  /// relations the verdict's join network binds (RelationFences::BitFor
  /// bits); 0 means "unknown", which EvictRelations treats as matching
  /// every write (safe, never stale).
  void Insert(const std::string& canonical, const std::string& binding_sig,
              uint64_t epoch, uint64_t relset, bool alive,
              uint64_t rel_mask);

  /// Partial invalidation: drops every verdict whose relation mask
  /// intersects `rel_mask` (entries inserted with mask 0 always match).
  /// Returns the number evicted.
  size_t EvictRelations(uint64_t rel_mask);

  /// Drops all entries (e.g. on explicit session reset).
  void Clear();

  VerdictCacheStats stats() const;

  static constexpr size_t kDefaultCapacity = 1 << 16;

 private:
  ShardedLruCache<VerdictKey, VerdictValue, VerdictKeyHash> cache_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_TRAVERSAL_VERDICT_CACHE_H_
