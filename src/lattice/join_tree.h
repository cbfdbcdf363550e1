// JoinTree: a join network of relation *copies* — the label of one lattice
// node (paper Sec. 2.2). Vertices are (relation, copy) pairs, unique within a
// tree; edges carry the schema-graph join they instantiate. Copy 0 is the
// free copy R_0 (bound to the empty keyword); copies >= 1 are keyword
// copies R_1..R_c.
#ifndef KWSDBG_LATTICE_JOIN_TREE_H_
#define KWSDBG_LATTICE_JOIN_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/schema_graph.h"

namespace kwsdbg {

/// A relation copy: vertex label in a join tree.
struct RelationCopy {
  RelationId relation;
  uint16_t copy;

  bool operator==(const RelationCopy&) const = default;
  bool operator<(const RelationCopy& o) const {
    return relation != o.relation ? relation < o.relation : copy < o.copy;
  }
};

/// An edge between two vertices of a JoinTree (indices into vertices()).
struct JoinTreeEdge {
  uint16_t a;
  uint16_t b;
  EdgeId schema_edge;

  bool operator==(const JoinTreeEdge&) const = default;
};

/// An immutable-ish join network. Invariants (checked by Validate):
/// connected, acyclic (|E| = |V| - 1), vertices unique, every edge
/// instantiates a schema edge whose endpoint relations match.
class JoinTree {
 public:
  JoinTree() = default;

  /// Single-vertex tree.
  static JoinTree Single(RelationCopy v);

  size_t num_vertices() const { return vertices_.size(); }
  size_t num_edges() const { return edges_.size(); }
  /// Lattice level of this tree (= number of vertices; level 1 is a single
  /// table, level k has k-1 joins).
  size_t level() const { return vertices_.size(); }

  const std::vector<RelationCopy>& vertices() const { return vertices_; }
  const std::vector<JoinTreeEdge>& edges() const { return edges_; }
  const RelationCopy& vertex(size_t i) const { return vertices_[i]; }

  /// Index of vertex `v`, or -1 if absent.
  int FindVertex(RelationCopy v) const;

  bool ContainsVertex(RelationCopy v) const { return FindVertex(v) >= 0; }

  /// Returns a copy of this tree extended with a new vertex `v` joined to the
  /// existing vertex at `at` via schema edge `via`. Precondition: `v` absent.
  JoinTree Extend(size_t at, RelationCopy v, EdgeId via) const;

  /// Degree of vertex i.
  size_t Degree(size_t i) const;

  /// True iff vertex `i` already has an incident edge instantiating schema
  /// edge `e`. Used to enforce the DISCOVER rule that a foreign-key column
  /// joins at most one instance: a second use at the FK side would force
  /// two "different" instances to be the same tuple.
  bool VertexUsesEdge(size_t i, EdgeId e) const;

  /// Indices of vertices with degree <= 1 (single vertex counts as a leaf).
  std::vector<size_t> LeafIndices() const;

  /// Returns the subtree obtained by deleting leaf vertex `leaf`.
  /// Precondition: `leaf` is a leaf and num_vertices() > 1.
  JoinTree RemoveLeaf(size_t leaf) const;

  /// Checks the structural invariants against `schema`.
  Status Validate(const SchemaGraph& schema) const;

  /// Human-readable rendering, e.g. "Person[1] -(authored.pid=Person.id)-
  /// authored[0]".  Vertex form: Name[copy].
  std::string ToString(const SchemaGraph& schema) const;
  /// Appends ToString's rendering to `out`.
  void AppendTo(const SchemaGraph& schema, std::string* out) const;

  bool operator==(const JoinTree&) const = default;

 private:
  std::vector<RelationCopy> vertices_;
  std::vector<JoinTreeEdge> edges_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_LATTICE_JOIN_TREE_H_
