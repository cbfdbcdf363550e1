// Node classification state (paper Sec. 2.4: possibly-alive / alive / dead)
// plus the two inference rules R1 and R2 (Sec. 2.5), and SBH's scoring
// state (Sec. 2.5.3). Both are sized to the retained sub-lattice and indexed
// by local id (kws/pruned_lattice.h).
#ifndef KWSDBG_TRAVERSAL_NODE_STATUS_H_
#define KWSDBG_TRAVERSAL_NODE_STATUS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kws/pruned_lattice.h"

namespace kwsdbg {

enum class NodeStatus : uint8_t {
  kPossiblyAlive = 0,  ///< Not yet classified.
  kAlive,
  kDead,
};

/// Status per retained node, as an unknown row and an alive row, with R1/R2
/// propagation as word ORs of a closure row with the unknown bits. A
/// strategy owns one map per scope (per MTN for the no-reuse variants,
/// global otherwise).
class NodeStatusMap {
 public:
  explicit NodeStatusMap(size_t num_retained);

  NodeStatus Get(LocalId l) const {
    if (RowHas(unknown_, l)) return NodeStatus::kPossiblyAlive;
    return RowHas(alive_, l) ? NodeStatus::kAlive : NodeStatus::kDead;
  }
  bool IsKnown(LocalId l) const { return !RowHas(unknown_, l); }
  bool IsAlive(LocalId l) const { return RowHas(alive_, l); }
  bool IsDead(LocalId l) const { return Get(l) == NodeStatus::kDead; }

  void Set(LocalId l, NodeStatus s);

  /// The unclassified nodes, as a row.
  const std::vector<uint64_t>& unknown() const { return unknown_; }

  /// True when every node of `row` is classified.
  bool AllKnown(std::span<const uint64_t> row) const;

  /// R1: node alive => every retained descendant alive. Returns the number
  /// of nodes newly classified (excluding `l` itself) and, when `newly` is
  /// set, appends them to it in ascending local id.
  size_t MarkAliveWithDescendants(LocalId l, const PrunedLattice& pl,
                                  std::vector<LocalId>* newly = nullptr);

  /// R2: node dead => every retained ancestor dead. Returns and appends as
  /// MarkAliveWithDescendants does.
  size_t MarkDeadWithAncestors(LocalId l, const PrunedLattice& pl,
                               std::vector<LocalId>* newly = nullptr);

 private:
  /// Classifies the unknown nodes of `row` alive or dead.
  size_t Classify(std::span<const uint64_t> row, bool alive,
                  std::vector<LocalId>* newly);

  std::vector<uint64_t> unknown_;
  std::vector<uint64_t> alive_;
};

/// SBH's state (Sec. 2.5.3): a status map plus the terms of Eq. 1, kept
/// current as R1/R2 classify nodes. Batch SBH and InteractiveSession both
/// score and classify through it.
///
/// With S(m_i) = the unknown nodes in Desc+(m_i) and
/// W(n) = |{ m_i : n in Desc+(m_i) }| for unknown n (0 once classified),
/// Eq. 1 decomposes (see the paper's three-summand form) into
///
///   Score(n_j) = TotalW - W(n_j) - (1 - p_a) * A(n_j) - p_a * D(n_j)
///
/// where A(n_j) / D(n_j) sum W over n_j's unknown retained ancestors /
/// descendants. Minimizing Score is maximizing the gain
/// W(n_j) + (1-p_a) A(n_j) + p_a D(n_j), which is maintained incrementally:
/// classifying node u subtracts its old W from the D of its ancestors and
/// the A of its descendants.
class SbhState {
 public:
  /// `level_pa[k]` is p_a for nodes of lattice level k, for every level up
  /// to pl.MaxRetainedLevel(). `pl` must outlive the state.
  SbhState(const PrunedLattice& pl, std::vector<double> level_pa);

  const NodeStatusMap& status() const { return status_; }

  /// Gain W + (1-p_a) A + p_a D of node `l`.
  double Gain(LocalId l) const;

  /// The unknown node with the highest gain, the lowest local id (= lowest
  /// node id) on ties; kNotRetained once every node is classified.
  LocalId Pick() const;

  /// Classifies `l` and, by R1 (alive) or R2 (dead), its unknown retained
  /// descendants or ancestors, then retires each newly classified node's W.
  void Classify(LocalId l, bool alive);

 private:
  const PrunedLattice* pl_;
  std::vector<double> level_pa_;
  NodeStatusMap status_;
  std::vector<int64_t> w_, a_sum_, d_sum_;
  std::vector<LocalId> newly_;  ///< Reused by every Classify call.
};

}  // namespace kwsdbg

#endif  // KWSDBG_TRAVERSAL_NODE_STATUS_H_
