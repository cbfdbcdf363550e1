// Phases 1 and 2 over the offline lattice (paper Sec. 2.3-2.4): prune nodes
// containing unbound copies, classify total/partial, find Minimal-Total Nodes
// (MTNs = candidate networks), and retain only MTNs plus their descendants.
// Both phases read the lattice's copy-set index (lattice/lattice.h) instead
// of scanning its nodes, so their cost follows the retained set.
#ifndef KWSDBG_KWS_PRUNED_LATTICE_H_
#define KWSDBG_KWS_PRUNED_LATTICE_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "kws/keyword_binding.h"
#include "lattice/lattice.h"

namespace kwsdbg {

/// Optional user-defined constraint pushed into the Phase 3 search space
/// (the paper's Sec. 5 future-work suggestion). Returning false excludes a
/// sub-network from the retained set — it is neither evaluated nor eligible
/// as an MPAN. MTNs are always retained. Exclusion cuts reachability: a
/// sub-network is kept only if some chain of kept supertrees connects it to
/// an MTN, which gives constraints like "at least 3 tables" or "must involve
/// relation X" their natural semantics.
using NodeFilter = std::function<bool(const JoinTree&)>;

/// Ready-made filters.
namespace filters {

/// Keeps sub-networks of at least `min_level` relations.
NodeFilter MinLevel(size_t min_level);

/// Keeps sub-networks that include some copy of `relation`.
NodeFilter ContainsRelation(RelationId relation);

/// Keeps sub-networks bound to at least `min_keywords` keywords.
NodeFilter MinKeywords(size_t min_keywords, const KeywordBinding* binding);

/// Logical AND of two filters.
NodeFilter And(NodeFilter a, NodeFilter b);

}  // namespace filters

/// Timing and size counters for Phases 1-2 (feeds Fig. 10 and Sec. 3.3).
struct PruneStats {
  double prune_millis = 0;      ///< Phase 1: keyword-based pruning.
  double mtn_millis = 0;        ///< Phase 2: MTN finding + retention.
  size_t lattice_nodes = 0;     ///< Offline lattice size.
  size_t surviving_nodes = 0;   ///< After Phase 1 (counted, not listed).
  size_t num_mtns = 0;
  size_t retained_nodes = 0;    ///< MTNs + their descendants.
  size_t mtn_desc_total = 0;    ///< Sum over MTNs of |Desc(m)| (N in Fig 13).
  size_t mtn_desc_unique = 0;   ///< |Union of Desc(m)| (Nu in Fig 13).
};

/// The per-interpretation runtime view of the lattice.
class PrunedLattice {
 public:
  /// Runs Phase 1 + Phase 2 for one interpretation. A non-null `filter`
  /// restricts the Phase 3 search space (see NodeFilter above).
  ///
  /// Every keyword binds a distinct copy, so with B the binding's copy set a
  /// node survives Phase 1 iff its keyword-copy set is a subset of B, and is
  /// also total iff that set is B. Phase 1 sums the copy-set buckets of the
  /// subsets of B; the MTN candidates are B's bucket, and a candidate is
  /// minimal iff none of its children keeps all |B| keyword copies (a
  /// child's copy set is a subset of its parent's). MTNs, retained() and
  /// RetainedAtLevel are in ascending id order.
  static PrunedLattice Build(const Lattice& lattice,
                             const KeywordBinding& binding,
                             const NodeFilter& filter = nullptr);

  const Lattice& lattice() const { return *lattice_; }
  const KeywordBinding& binding() const { return binding_; }
  const PruneStats& stats() const { return stats_; }

  /// Phase 2 MTNs — the candidate networks.
  const std::vector<NodeId>& mtns() const { return mtns_; }

  /// MTNs plus all their descendants, the Phase 3 search space.
  const std::vector<NodeId>& retained() const { return retained_; }

  bool IsRetained(NodeId id) const { return retained_set_.Contains(id); }
  bool IsMtn(NodeId id) const;

  /// True iff the node's query covers every keyword (Sec. 2.4, Total node).
  bool IsTotal(NodeId id) const;

  /// Children / parents restricted to the retained set.
  std::vector<NodeId> RetainedChildren(NodeId id) const;
  std::vector<NodeId> RetainedParents(NodeId id) const;

  /// Proper descendants of `id` within the retained set (memoized).
  const std::vector<NodeId>& RetainedDescendants(NodeId id) const;

  /// Proper ancestors of `id` within the retained set (memoized).
  const std::vector<NodeId>& RetainedAncestors(NodeId id) const;

  /// Retained node ids at `level`.
  const std::vector<NodeId>& RetainedAtLevel(size_t level) const;

  /// Highest level with a retained node (0 when nothing is retained).
  size_t MaxRetainedLevel() const { return max_retained_level_; }

 private:
  /// Open-addressing set of node ids sized to its contents (load <= 0.5),
  /// so a per-interpretation set costs O(|set|), not O(|lattice|).
  class NodeIdSet {
   public:
    bool Contains(NodeId id) const;
    /// Adds `id`; false when it was already present.
    bool Insert(NodeId id);

   private:
    size_t Slot(NodeId id) const;

    size_t size_ = 0;
    std::vector<NodeId> slots_;  ///< Power-of-two size; kInvalidNode = free.
  };

  const Lattice* lattice_ = nullptr;
  KeywordBinding binding_{std::vector<KeywordAssignment>{}};
  PruneStats stats_;
  std::vector<NodeId> mtns_;
  std::vector<NodeId> retained_;
  NodeIdSet retained_set_;
  std::vector<std::vector<NodeId>> retained_by_level_;
  size_t max_retained_level_ = 0;
  mutable std::unordered_map<NodeId, std::vector<NodeId>> desc_cache_;
  mutable std::unordered_map<NodeId, std::vector<NodeId>> asc_cache_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_KWS_PRUNED_LATTICE_H_
