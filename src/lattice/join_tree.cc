#include "lattice/join_tree.h"

#include <algorithm>

#include "common/logging.h"

namespace kwsdbg {

JoinTree JoinTree::Single(RelationCopy v) {
  JoinTree t;
  t.vertices_.push_back(v);
  return t;
}

int JoinTree::FindVertex(RelationCopy v) const {
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (vertices_[i] == v) return static_cast<int>(i);
  }
  return -1;
}

JoinTree JoinTree::Extend(size_t at, RelationCopy v, EdgeId via) const {
  KWSDBG_DCHECK(at < vertices_.size());
  KWSDBG_DCHECK(!ContainsVertex(v));
  JoinTree out = *this;
  uint16_t new_idx = static_cast<uint16_t>(out.vertices_.size());
  out.vertices_.push_back(v);
  out.edges_.push_back(
      JoinTreeEdge{static_cast<uint16_t>(at), new_idx, via});
  return out;
}

size_t JoinTree::Degree(size_t i) const {
  size_t d = 0;
  for (const auto& e : edges_) {
    if (e.a == i || e.b == i) ++d;
  }
  return d;
}

bool JoinTree::VertexUsesEdge(size_t i, EdgeId e) const {
  for (const auto& edge : edges_) {
    if (edge.schema_edge == e && (edge.a == i || edge.b == i)) return true;
  }
  return false;
}

std::vector<size_t> JoinTree::LeafIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (Degree(i) <= 1) out.push_back(i);
  }
  return out;
}

JoinTree JoinTree::RemoveLeaf(size_t leaf) const {
  KWSDBG_DCHECK(num_vertices() > 1);
  KWSDBG_DCHECK(Degree(leaf) == 1);
  JoinTree out;
  // Old index -> new index mapping (leaf removed, later vertices shift).
  std::vector<int> remap(vertices_.size(), -1);
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (i == leaf) continue;
    remap[i] = static_cast<int>(out.vertices_.size());
    out.vertices_.push_back(vertices_[i]);
  }
  for (const auto& e : edges_) {
    if (e.a == leaf || e.b == leaf) continue;
    out.edges_.push_back(JoinTreeEdge{static_cast<uint16_t>(remap[e.a]),
                                      static_cast<uint16_t>(remap[e.b]),
                                      e.schema_edge});
  }
  return out;
}

Status JoinTree::Validate(const SchemaGraph& schema) const {
  if (vertices_.empty()) return Status::InvalidArgument("empty tree");
  if (edges_.size() != vertices_.size() - 1) {
    return Status::InvalidArgument("not a tree: |E| != |V| - 1");
  }
  // Unique vertices.
  for (size_t i = 0; i < vertices_.size(); ++i) {
    for (size_t j = i + 1; j < vertices_.size(); ++j) {
      if (vertices_[i] == vertices_[j]) {
        return Status::InvalidArgument("duplicate vertex in tree");
      }
    }
  }
  // Edge endpoints valid and consistent with the schema edge.
  for (const auto& e : edges_) {
    if (e.a >= vertices_.size() || e.b >= vertices_.size() || e.a == e.b) {
      return Status::InvalidArgument("bad edge endpoints");
    }
    if (e.schema_edge >= schema.num_edges()) {
      return Status::InvalidArgument("bad schema edge id");
    }
    const JoinEdge& se = schema.edge(e.schema_edge);
    const RelationId ra = vertices_[e.a].relation;
    const RelationId rb = vertices_[e.b].relation;
    const bool matches = (se.from == ra && se.to == rb) ||
                         (se.from == rb && se.to == ra);
    if (!matches) {
      return Status::InvalidArgument(
          "tree edge relations do not match its schema edge");
    }
  }
  // DISCOVER validity: the foreign-key side of a schema edge joins at most
  // once per instance (a second use forces two instances to be equal — a
  // degenerate query whose results duplicate a smaller network's).
  for (size_t i = 0; i < vertices_.size(); ++i) {
    for (size_t a = 0; a < edges_.size(); ++a) {
      if (edges_[a].a != i && edges_[a].b != i) continue;
      const JoinEdge& sea = schema.edge(edges_[a].schema_edge);
      if (vertices_[i].relation != sea.from) continue;  // PK side is free
      for (size_t b = a + 1; b < edges_.size(); ++b) {
        if (edges_[b].a != i && edges_[b].b != i) continue;
        if (edges_[b].schema_edge == edges_[a].schema_edge) {
          return Status::InvalidArgument(
              "foreign-key column joined twice at one instance");
        }
      }
    }
  }

  // Connectivity via union-find.
  std::vector<size_t> parent(vertices_.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& e : edges_) {
    size_t ra = find(e.a), rb = find(e.b);
    if (ra == rb) return Status::InvalidArgument("cycle in tree");
    parent[ra] = rb;
  }
  for (size_t i = 1; i < vertices_.size(); ++i) {
    if (find(i) != find(0)) return Status::InvalidArgument("disconnected");
  }
  return Status::OK();
}

std::string JoinTree::ToString(const SchemaGraph& schema) const {
  std::string out;
  AppendTo(schema, &out);
  return out;
}

void JoinTree::AppendTo(const SchemaGraph& schema, std::string* out) const {
  auto append_vertex = [&](size_t i) {
    out->append(schema.relation(vertices_[i].relation).name);
    out->push_back('[');
    out->append(std::to_string(vertices_[i].copy));
    out->push_back(']');
  };
  if (edges_.empty()) {
    append_vertex(0);
    return;
  }
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0) out->append("; ");
    const JoinEdge& se = schema.edge(edges_[i].schema_edge);
    append_vertex(edges_[i].a);
    out->append(" -(");
    out->append(schema.relation(se.from).name);
    out->push_back('.');
    out->append(se.from_column);
    out->push_back('=');
    out->append(schema.relation(se.to).name);
    out->push_back('.');
    out->append(se.to_column);
    out->append(")- ");
    append_vertex(edges_[i].b);
  }
}

}  // namespace kwsdbg
