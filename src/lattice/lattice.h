// The sub-query lattice (paper Sec. 2.2): every deduplicated join network of
// relation copies up to a configured number of joins, organized by level with
// parent/child (supergraph-by-one-edge / subgraph-by-one-leaf) links.
#ifndef KWSDBG_LATTICE_LATTICE_H_
#define KWSDBG_LATTICE_LATTICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lattice/join_tree.h"

namespace kwsdbg {

/// Which relations receive keyword copies R_1..R_c in addition to the free
/// copy R_0.
enum class CopyPolicy {
  /// Literal Algorithm 1: every relation gets keyword copies. Exponential on
  /// real schemas; intended for small schemas and tests.
  kAllRelations,
  /// Keyword copies only for relations with text attributes — a copy of a
  /// text-free relation could never be bound to a keyword in Phase 1, so the
  /// pruned-away nodes are never generated in the first place. Default.
  kTextRelationsOnly,
};

/// Generation parameters.
struct LatticeConfig {
  /// Maximum number of joins m; the lattice has m+1 levels.
  size_t max_joins = 2;
  CopyPolicy copy_policy = CopyPolicy::kTextRelationsOnly;
  /// Number of keyword copies c per (eligible) relation; 0 means the paper
  /// default c = max_joins + 1. Setting c to the maximum number of query
  /// keywords (e.g. 3 for the paper's workload) is lossless for those
  /// queries and much cheaper.
  size_t num_keyword_copies = 0;
  /// Safety valve: abort generation with an error if the node count would
  /// exceed this (0 = unlimited).
  size_t max_nodes = 0;

  /// The c actually in effect.
  size_t EffectiveKeywordCopies() const {
    return num_keyword_copies == 0 ? max_joins + 1 : num_keyword_copies;
  }
};

/// Id of a node within a Lattice.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One lattice node: a deduplicated join tree plus its hierarchy links.
struct LatticeNode {
  NodeId id;
  JoinTree tree;
  uint16_t level;                 ///< = tree.level() (#vertices).
  std::vector<NodeId> parents;    ///< Level+1 nodes extending this tree.
  std::vector<NodeId> children;   ///< Level-1 nodes (one leaf removed).
};

/// Per-level generation statistics (feeds Fig. 9).
struct LevelStats {
  size_t generated = 0;   ///< Extension attempts that produced a tree.
  size_t duplicates = 0;  ///< Of those, how many were canonical duplicates.
  size_t kept = 0;        ///< Distinct nodes retained at this level.
  double gen_millis = 0;  ///< Wall time spent generating this level.
};

/// Lattice nodes bucketed by keyword-copy set: a node's vertices other than
/// free copies R_0, ascending. Phases 1-2 read the buckets of the binding's
/// copy set and its subsets instead of scanning the lattice
/// (kws/pruned_lattice.cc). Laid out as CSR: a key table (the keys in
/// ascending lexicographic order, back to back in one copy array), one
/// bucket offset array, and one node-id array holding each bucket in
/// ascending id order.
class CopySetIndex {
 public:
  static CopySetIndex Build(const std::vector<LatticeNode>& nodes);

  size_t num_keys() const { return offsets_.size() - 1; }

  /// Key `i`'s copies, ascending.
  std::span<const RelationCopy> key(size_t i) const {
    return {copies_.data() + key_begin_[i], copies_.data() + key_begin_[i + 1]};
  }

  /// Nodes whose keyword-copy set is key `i`, ascending ids.
  std::span<const NodeId> bucket(size_t i) const {
    return {node_ids_.data() + offsets_[i], node_ids_.data() + offsets_[i + 1]};
  }

  /// Nodes whose keyword-copy set is exactly `copies` (ascending, distinct),
  /// ascending ids; empty when no node has that set.
  std::span<const NodeId> Find(std::span<const RelationCopy> copies) const;

 private:
  std::vector<RelationCopy> copies_;    ///< Every key's copies, key order.
  std::vector<uint32_t> key_begin_{0};  ///< Key i = copies_[key_begin_[i],
                                        ///< key_begin_[i + 1]).
  std::vector<uint32_t> offsets_{0};    ///< Bucket i = node_ids_[offsets_[i],
                                        ///< offsets_[i + 1]).
  std::vector<NodeId> node_ids_;
};

/// Immutable-after-build lattice. Node ids ascend with level: every node of
/// level k has a smaller id than every node of level k + 1, so a sorted set
/// of ids is in level order (kws/pruned_lattice.h numbers its local ids by
/// it). The generator assigns ids level by level and LoadLattice rejects a
/// file whose node lines break the order.
class Lattice {
 public:
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_levels() const { return levels_.empty() ? 0 : levels_.size() - 1; }

  const LatticeNode& node(NodeId id) const { return nodes_[id]; }

  /// Node ids at `level` (1-based; level 1 = single tables).
  const std::vector<NodeId>& NodesAtLevel(size_t level) const;

  /// Looks up a node by the canonical labeling of its tree; kInvalidNode if
  /// absent.
  NodeId FindByCanonical(const std::string& canonical) const;

  /// Looks up the node holding exactly this tree; kInvalidNode if absent.
  NodeId FindTree(const JoinTree& tree) const;

  /// All proper descendants of `id` (transitive closure of children), i.e.
  /// every connected sub-network. Order is unspecified but deterministic.
  std::vector<NodeId> Descendants(NodeId id) const;

  /// All proper ancestors of `id` (transitive closure of parents).
  std::vector<NodeId> Ancestors(NodeId id) const;

  const std::vector<LevelStats>& level_stats() const { return level_stats_; }
  const SchemaGraph& schema() const { return *schema_; }
  const LatticeConfig& config() const { return config_; }

  /// The nodes bucketed by keyword-copy set, derived when the lattice is
  /// generated or loaded.
  const CopySetIndex& copy_sets() const { return copy_sets_; }

  /// Total duplicates removed across levels (Fig. 9(a)).
  size_t TotalDuplicates() const;

 private:
  friend class LatticeGenerator;
  friend class LatticeIoAccess;  // serialization (lattice_io.cc)

  std::vector<LatticeNode> nodes_;
  std::vector<std::vector<NodeId>> levels_;  // levels_[k] = ids at level k.
  std::unordered_map<std::string, NodeId> by_canonical_;
  std::vector<LevelStats> level_stats_;      // level_stats_[k-1] for level k.
  const SchemaGraph* schema_ = nullptr;
  LatticeConfig config_;
  CopySetIndex copy_sets_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_LATTICE_LATTICE_H_
