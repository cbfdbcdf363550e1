// Phases 1 and 2 over the offline lattice (paper Sec. 2.3-2.4): prune nodes
// containing unbound copies, classify total/partial, find Minimal-Total Nodes
// (MTNs = candidate networks), and retain only MTNs plus their descendants.
// Both phases read the lattice's copy-set index (lattice/lattice.h) instead
// of scanning its nodes, so their cost follows the retained set.
#ifndef KWSDBG_KWS_PRUNED_LATTICE_H_
#define KWSDBG_KWS_PRUNED_LATTICE_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
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

/// Index of a retained node in PrunedLattice::retained(): 0..R-1 in
/// ascending node id, which is level order (lattice ids ascend with level).
/// Phase 3 state is sized R and indexed by it.
using LocalId = uint32_t;
inline constexpr LocalId kNotRetained = static_cast<LocalId>(-1);

/// Bit `l` of a closure row: R bits in uint64_t words, bit l of word l / 64.
inline bool RowHas(std::span<const uint64_t> row, LocalId l) {
  return ((row[l >> 6] >> (l & 63)) & 1) != 0;
}

/// Sets bit `l` of a closure row.
inline void RowAdd(std::span<uint64_t> row, LocalId l) {
  row[l >> 6] |= uint64_t{1} << (l & 63);
}

/// Calls `f(l)` for each bit set in `row`, ascending.
template <typename F>
void ForEachInRow(std::span<const uint64_t> row, F&& f) {
  for (size_t w = 0; w < row.size(); ++w) {
    for (uint64_t word = row[w]; word != 0; word &= word - 1) {
      f(static_cast<LocalId>(w * 64 + std::countr_zero(word)));
    }
  }
}

/// The per-interpretation runtime view of the lattice: the Phase 3 search
/// space as local ids with level ranges, CSR child links, and one
/// descendant and one ancestor closure row per node.
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
  /// child's copy set is a subset of its parent's). MTNs and retained() are
  /// in ascending id order.
  static PrunedLattice Build(const Lattice& lattice,
                             const KeywordBinding& binding,
                             const NodeFilter& filter = nullptr);

  const Lattice& lattice() const { return *lattice_; }
  const KeywordBinding& binding() const { return binding_; }
  const PruneStats& stats() const { return stats_; }

  /// Phase 2 MTNs — the candidate networks.
  const std::vector<NodeId>& mtns() const { return mtns_; }

  /// The MTNs as local ids, ascending.
  const std::vector<LocalId>& mtn_locals() const { return mtn_locals_; }

  /// MTNs plus all their descendants, the Phase 3 search space. Entry `l`
  /// is the node of local id `l`.
  const std::vector<NodeId>& retained() const { return retained_; }
  size_t num_retained() const { return retained_.size(); }

  /// Local id of node `id`, or kNotRetained. O(log R).
  LocalId LocalOf(NodeId id) const;
  bool IsRetained(NodeId id) const { return LocalOf(id) != kNotRetained; }
  bool IsMtn(NodeId id) const;

  /// True iff the node's query covers every keyword (Sec. 2.4, Total node).
  bool IsTotal(NodeId id) const;

  /// Lattice level of local id `l`, from the level ranges.
  size_t LevelOf(LocalId l) const;

  /// Local ids at `level`: [first, second), empty when none.
  std::pair<LocalId, LocalId> LevelRange(size_t level) const;

  /// Highest level with a retained node (0 when nothing is retained).
  size_t MaxRetainedLevel() const { return level_begin_.size() - 2; }

  /// Retained children of `l`, in lattice link order.
  std::span<const LocalId> Children(LocalId l) const {
    return {children_.data() + child_begin_[l],
            children_.data() + child_begin_[l + 1]};
  }

  /// Words per closure row: ceil(R / 64).
  size_t row_words() const { return row_words_; }

  /// Proper descendants / ancestors of `l` within the retained set, reached
  /// through retained children / parents, as a closure row.
  std::span<const uint64_t> DescendantRow(LocalId l) const {
    return {desc_rows_.data() + l * row_words_, row_words_};
  }
  std::span<const uint64_t> AncestorRow(LocalId l) const {
    return {anc_rows_.data() + l * row_words_, row_words_};
  }

 private:
  const Lattice* lattice_ = nullptr;
  KeywordBinding binding_{std::vector<KeywordAssignment>{}};
  PruneStats stats_;
  std::vector<NodeId> mtns_;
  std::vector<LocalId> mtn_locals_;
  std::vector<NodeId> retained_;
  std::vector<LocalId> level_begin_{0, 0};  ///< Level k = [level_begin_[k],
                                            ///< level_begin_[k + 1]).
  std::vector<uint32_t> child_begin_{0};    ///< CSR offsets into children_.
  std::vector<LocalId> children_;
  size_t row_words_ = 0;
  std::vector<uint64_t> desc_rows_;  ///< R rows of row_words_ words.
  std::vector<uint64_t> anc_rows_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_KWS_PRUNED_LATTICE_H_
