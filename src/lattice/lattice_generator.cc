#include "lattice/lattice_generator.h"

#include "common/logging.h"
#include "common/timer.h"
#include "lattice/canonical_label.h"

namespace kwsdbg {

namespace {

/// Number of keyword copies for `rel` under `config`.
size_t KeywordCopies(const RelationInfo& rel, const LatticeConfig& config) {
  const size_t c = config.EffectiveKeywordCopies();
  switch (config.copy_policy) {
    case CopyPolicy::kAllRelations:
      return c;
    case CopyPolicy::kTextRelationsOnly:
      return rel.has_text ? c : 0;
  }
  return 0;
}

}  // namespace

StatusOr<std::unique_ptr<Lattice>> LatticeGenerator::Generate(
    const SchemaGraph& schema, const LatticeConfig& config) {
  if (schema.num_relations() == 0) {
    return Status::InvalidArgument("schema graph has no relations");
  }
  auto lattice = std::make_unique<Lattice>();
  Lattice& lat = *lattice;
  lat.schema_ = &schema;
  lat.config_ = config;
  const size_t max_level = config.max_joins + 1;
  lat.levels_.resize(max_level + 1);
  lat.level_stats_.resize(max_level);

  auto add_node = [&](JoinTree tree, std::string canonical) -> NodeId {
    NodeId id = static_cast<NodeId>(lat.nodes_.size());
    uint16_t level = static_cast<uint16_t>(tree.level());
    lat.nodes_.push_back(LatticeNode{id, std::move(tree), level, {}, {}});
    lat.levels_[level].push_back(id);
    lat.by_canonical_.emplace(std::move(canonical), id);
    return id;
  };

  // Base level L1: the free copy R_0 plus keyword copies R_1..R_c of every
  // relation (Alg. 1 lines 4-7; the R_0 copies are Sec. 2.2's extra copy).
  {
    Timer timer;
    LevelStats& stats = lat.level_stats_[0];
    for (const RelationInfo& rel : schema.relations()) {
      const size_t copies = KeywordCopies(rel, config);
      for (size_t c = 0; c <= copies; ++c) {
        JoinTree t = JoinTree::Single(
            RelationCopy{rel.id, static_cast<uint16_t>(c)});
        std::string canonical = CanonicalLabel(t);
        ++stats.generated;
        // Base trees are distinct by construction, but keep the uniform path.
        if (lat.by_canonical_.count(canonical)) {
          ++stats.duplicates;
          continue;
        }
        add_node(std::move(t), std::move(canonical));
      }
    }
    stats.kept = lat.levels_[1].size();
    stats.gen_millis = timer.ElapsedMillis();
  }

  // Higher levels L_k (Alg. 1 lines 9-18). Extending a level-(k-1) tree G at
  // vertex v along schema edge e to a fresh copy of the other endpoint either
  // creates a new node or rediscovers an existing one; in both cases the
  // child/parent link G -> G' is recorded (each (G, G') pair is produced by
  // exactly one (v, e, copy) extension, so links need no deduplication).
  for (size_t k = 2; k <= max_level; ++k) {
    Timer timer;
    LevelStats& stats = lat.level_stats_[k - 1];
    // Iterate over a copy of the id list: add_node appends to levels_.
    const std::vector<NodeId> prev_level = lat.levels_[k - 1];
    for (NodeId gid : prev_level) {
      // The tree is copied because nodes_ may reallocate during add_node.
      const JoinTree g = lat.nodes_[gid].tree;
      for (size_t vi = 0; vi < g.num_vertices(); ++vi) {
        const RelationId r = g.vertex(vi).relation;
        for (EdgeId eid : schema.IncidentEdges(r)) {
          const JoinEdge& se = schema.edge(eid);
          // DISCOVER validity rule: the FK side of a schema edge joins at
          // most one instance (see JoinTree::Validate). Skip extensions
          // that would use the edge a second time at an FK-side vertex.
          if (r == se.from && g.VertexUsesEdge(vi, eid)) continue;
          const RelationId other = schema.OtherEndpoint(se, r);
          const RelationInfo& other_info = schema.relation(other);
          const size_t copies = KeywordCopies(other_info, config);
          for (size_t c = 0; c <= copies; ++c) {
            RelationCopy nv{other, static_cast<uint16_t>(c)};
            if (g.ContainsVertex(nv)) continue;
            JoinTree extended = g.Extend(vi, nv, eid);
            std::string canonical = CanonicalLabel(extended);
            ++stats.generated;
            NodeId existing = lat.FindByCanonical(canonical);
            NodeId pid;
            if (existing != kInvalidNode) {
              ++stats.duplicates;  // Offline Pruning 1 (Alg. 1 line 17).
              pid = existing;
            } else {
              if (config.max_nodes != 0 &&
                  lat.nodes_.size() >= config.max_nodes) {
                return Status::OutOfRange(
                    "lattice exceeds max_nodes = " +
                    std::to_string(config.max_nodes) + " at level " +
                    std::to_string(k));
              }
              pid = add_node(std::move(extended), std::move(canonical));
            }
            lat.nodes_[gid].parents.push_back(pid);
            lat.nodes_[pid].children.push_back(gid);
          }
        }
      }
    }
    stats.kept = lat.levels_[k].size();
    stats.gen_millis = timer.ElapsedMillis();
  }
  lat.copy_sets_ = CopySetIndex::Build(lat.nodes_);
  return lattice;
}

}  // namespace kwsdbg
