#include "lattice/canonical_label.h"

#include <algorithm>

#include "common/logging.h"

namespace kwsdbg {

namespace {

// Upper bound on copies per relation used by the id packing. 2^16 matches
// the uint16_t copy field.
constexpr uint64_t kCopyBits = 16;

struct Adjacency {
  std::vector<std::vector<std::pair<size_t, EdgeId>>> neighbors;

  explicit Adjacency(const JoinTree& tree)
      : neighbors(tree.num_vertices()) {
    for (const auto& e : tree.edges()) {
      neighbors[e.a].emplace_back(e.b, e.schema_edge);
      neighbors[e.b].emplace_back(e.a, e.schema_edge);
    }
  }
};

// GetCode from Alg. 2: builds the label of the subtree rooted at `u`, with
// `parent` excluded from its children.
std::string GetCode(const JoinTree& tree, const Adjacency& adj, size_t u,
                    size_t parent) {
  std::string l = "[";
  l += std::to_string(VertexLabelId(tree.vertex(u)));
  std::vector<std::string> child_labels;
  for (const auto& [v, eid] : adj.neighbors[u]) {
    if (v == parent) continue;
    child_labels.push_back(std::to_string(eid) +
                           GetCode(tree, adj, v, u));
  }
  if (!child_labels.empty()) {
    l += "|";
    std::sort(child_labels.begin(), child_labels.end());
    for (const auto& cl : child_labels) l += cl;
  }
  l += "]";
  return l;
}

}  // namespace

uint64_t VertexLabelId(RelationCopy v) {
  return (static_cast<uint64_t>(v.relation) << kCopyBits) |
         static_cast<uint64_t>(v.copy);
}

std::string CanonicalLabel(const JoinTree& tree) {
  KWSDBG_CHECK(tree.num_vertices() > 0);
  const Adjacency adj(tree);
  // R = vertices with the minimum label id (Alg. 2 line 16). Within a join
  // tree (relation, copy) pairs are unique, so there is exactly one, but we
  // keep the faithful min-over-roots form: it stays correct even if a caller
  // ever builds a tree with repeated labels.
  uint64_t min_id = VertexLabelId(tree.vertex(0));
  for (size_t i = 1; i < tree.num_vertices(); ++i) {
    min_id = std::min(min_id, VertexLabelId(tree.vertex(i)));
  }
  std::string best;
  for (size_t i = 0; i < tree.num_vertices(); ++i) {
    if (VertexLabelId(tree.vertex(i)) != min_id) continue;
    std::string code = GetCode(tree, adj, i, i);
    if (best.empty() || code < best) best = std::move(code);
  }
  return best;
}

}  // namespace kwsdbg
