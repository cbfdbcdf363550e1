#include "lattice/lattice_io.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"
#include "lattice/canonical_label.h"

namespace kwsdbg {

/// Private-member access shim (friend of Lattice).
class LatticeIoAccess {
 public:
  static Status Save(const Lattice& lattice, std::ostream* out);
  static StatusOr<std::unique_ptr<Lattice>> Load(const SchemaGraph& schema,
                                                 std::istream* in);
};

namespace {

constexpr const char* kMagic = "KWSDBGLAT 1";

constexpr int64_t kMaxU16 = std::numeric_limits<uint16_t>::max();
constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();

/// Parses a non-negative integer no larger than `max`, the largest value of
/// the field it is stored into. Every integer in the format is a count, an
/// id or an index, so a negative or oversized one is a corrupt or forged
/// file, never a value to narrow or to size an allocation with.
StatusOr<int64_t> ParseCount(const std::string& s, int64_t max) {
  int64_t v = 0;
  try {
    size_t pos = 0;
    v = std::stoll(s, &pos);
    if (pos != s.size()) return Status::ParseError("bad integer '" + s + "'");
  } catch (...) {
    return Status::ParseError("bad integer '" + s + "'");
  }
  if (v < 0 || v > max) {
    return Status::ParseError("integer '" + s + "' outside [0, " +
                              std::to_string(max) + "]");
  }
  return v;
}

}  // namespace

Status LatticeIoAccess::Save(const Lattice& lattice, std::ostream* out) {
  const LatticeConfig& config = lattice.config_;
  *out << kMagic << "\n";
  *out << "config " << config.max_joins << " "
       << (config.copy_policy == CopyPolicy::kAllRelations ? "all" : "text")
       << " " << config.num_keyword_copies << " " << config.max_nodes << "\n";
  *out << "schema " << lattice.schema_->num_relations() << " "
       << lattice.schema_->num_edges() << "\n";
  *out << "stats " << lattice.level_stats_.size();
  for (const LevelStats& ls : lattice.level_stats_) {
    *out << " " << ls.generated << " " << ls.duplicates << " " << ls.kept;
  }
  *out << "\n";
  *out << "nodes " << lattice.nodes_.size() << "\n";
  // Nodes are stored in id order, which is also level order within the
  // generation; ids are implicit (line order).
  for (const LatticeNode& node : lattice.nodes_) {
    *out << "n";
    for (const RelationCopy& v : node.tree.vertices()) {
      *out << " " << v.relation << ":" << v.copy;
    }
    *out << " |";
    for (const JoinTreeEdge& e : node.tree.edges()) {
      *out << " " << e.a << "," << e.b << "," << e.schema_edge;
    }
    *out << "\n";
  }
  if (!*out) return Status::Internal("I/O error writing lattice");
  return Status::OK();
}

StatusOr<std::unique_ptr<Lattice>> LatticeIoAccess::Load(
    const SchemaGraph& schema, std::istream* in) {
  std::string line;
  if (!std::getline(*in, line) || line != kMagic) {
    return Status::ParseError("missing lattice header");
  }
  auto lattice = std::make_unique<Lattice>();
  Lattice& lat = *lattice;
  lat.schema_ = &schema;

  // config
  if (!std::getline(*in, line)) return Status::ParseError("missing config");
  {
    std::vector<std::string> parts = Split(line, " ");
    if (parts.size() != 5 || parts[0] != "config") {
      return Status::ParseError("bad config line: " + line);
    }
    // Levels run 1..max_joins + 1 and are stored as uint16_t.
    KWSDBG_ASSIGN_OR_RETURN(int64_t mj, ParseCount(parts[1], kMaxU16 - 1));
    lat.config_.max_joins = static_cast<size_t>(mj);
    if (parts[2] == "all") {
      lat.config_.copy_policy = CopyPolicy::kAllRelations;
    } else if (parts[2] == "text") {
      lat.config_.copy_policy = CopyPolicy::kTextRelationsOnly;
    } else {
      return Status::ParseError("bad copy policy '" + parts[2] + "'");
    }
    KWSDBG_ASSIGN_OR_RETURN(int64_t c, ParseCount(parts[3], kMaxU16));
    lat.config_.num_keyword_copies = static_cast<size_t>(c);
    KWSDBG_ASSIGN_OR_RETURN(int64_t mn, ParseCount(parts[4], kMaxI64));
    lat.config_.max_nodes = static_cast<size_t>(mn);
  }

  // schema fingerprint
  if (!std::getline(*in, line)) return Status::ParseError("missing schema");
  {
    std::vector<std::string> parts = Split(line, " ");
    if (parts.size() != 3 || parts[0] != "schema") {
      return Status::ParseError("bad schema line: " + line);
    }
    KWSDBG_ASSIGN_OR_RETURN(int64_t nrel, ParseCount(parts[1], kMaxU32));
    KWSDBG_ASSIGN_OR_RETURN(int64_t nedge, ParseCount(parts[2], kMaxU32));
    if (static_cast<size_t>(nrel) != schema.num_relations() ||
        static_cast<size_t>(nedge) != schema.num_edges()) {
      return Status::FailedPrecondition(
          "lattice was generated against a different schema graph (" +
          parts[1] + " relations / " + parts[2] + " edges vs " +
          std::to_string(schema.num_relations()) + " / " +
          std::to_string(schema.num_edges()) + ")");
    }
  }

  // stats
  if (!std::getline(*in, line)) return Status::ParseError("missing stats");
  {
    std::vector<std::string> parts = Split(line, " ");
    if (parts.size() < 2 || parts[0] != "stats") {
      return Status::ParseError("bad stats line: " + line);
    }
    KWSDBG_ASSIGN_OR_RETURN(int64_t levels, ParseCount(parts[1], kMaxU16));
    if (parts.size() != 2 + 3 * static_cast<size_t>(levels)) {
      return Status::ParseError("stats arity mismatch");
    }
    for (int64_t i = 0; i < levels; ++i) {
      LevelStats ls;
      KWSDBG_ASSIGN_OR_RETURN(int64_t g, ParseCount(parts[2 + 3 * i], kMaxI64));
      KWSDBG_ASSIGN_OR_RETURN(int64_t d, ParseCount(parts[3 + 3 * i], kMaxI64));
      KWSDBG_ASSIGN_OR_RETURN(int64_t k, ParseCount(parts[4 + 3 * i], kMaxI64));
      ls.generated = static_cast<size_t>(g);
      ls.duplicates = static_cast<size_t>(d);
      ls.kept = static_cast<size_t>(k);
      lat.level_stats_.push_back(ls);
    }
  }
  lat.levels_.resize(lat.config_.max_joins + 2);

  // nodes
  if (!std::getline(*in, line)) return Status::ParseError("missing nodes");
  std::vector<std::string> head = Split(line, " ");
  if (head.size() != 2 || head[0] != "nodes") {
    return Status::ParseError("bad nodes line: " + line);
  }
  // Ids are NodeIds, kInvalidNode excluded. The count only bounds the loop:
  // the node vector grows with the lines actually read.
  KWSDBG_ASSIGN_OR_RETURN(int64_t num_nodes,
                          ParseCount(head[1], int64_t{kInvalidNode} - 1));
  for (int64_t i = 0; i < num_nodes; ++i) {
    if (!std::getline(*in, line)) {
      return Status::ParseError("truncated node list at " +
                                std::to_string(i));
    }
    std::vector<std::string> parts = Split(line, " ");
    if (parts.empty() || parts[0] != "n") {
      return Status::ParseError("bad node line: " + line);
    }
    JoinTree tree;
    size_t p = 1;
    // Vertices until the "|" separator.
    std::vector<RelationCopy> vertices;
    for (; p < parts.size() && parts[p] != "|"; ++p) {
      std::vector<std::string> rc = Split(parts[p], ":");
      if (rc.size() != 2) {
        return Status::ParseError("bad vertex '" + parts[p] + "'");
      }
      KWSDBG_ASSIGN_OR_RETURN(int64_t rel, ParseCount(rc[0], kMaxU32));
      KWSDBG_ASSIGN_OR_RETURN(int64_t copy, ParseCount(rc[1], kMaxU16));
      if (static_cast<size_t>(rel) >= schema.num_relations()) {
        return Status::ParseError("vertex relation out of range: " + parts[p]);
      }
      vertices.push_back(RelationCopy{static_cast<RelationId>(rel),
                                      static_cast<uint16_t>(copy)});
    }
    if (p == parts.size()) {
      return Status::ParseError("node line missing '|': " + line);
    }
    if (vertices.empty()) {
      return Status::ParseError("node with no vertices: " + line);
    }
    // Rebuild via Single/Extend is awkward because edges reference indices;
    // reconstruct directly and validate.
    tree = JoinTree::Single(vertices[0]);
    // Collect edges first.
    struct RawEdge {
      uint16_t a, b;
      EdgeId e;
    };
    std::vector<RawEdge> edges;
    for (++p; p < parts.size(); ++p) {
      std::vector<std::string> abe = Split(parts[p], ",");
      if (abe.size() != 3) {
        return Status::ParseError("bad edge '" + parts[p] + "'");
      }
      KWSDBG_ASSIGN_OR_RETURN(int64_t a, ParseCount(abe[0], kMaxU16));
      KWSDBG_ASSIGN_OR_RETURN(int64_t b, ParseCount(abe[1], kMaxU16));
      KWSDBG_ASSIGN_OR_RETURN(int64_t e, ParseCount(abe[2], kMaxU32));
      edges.push_back(RawEdge{static_cast<uint16_t>(a),
                              static_cast<uint16_t>(b),
                              static_cast<EdgeId>(e)});
    }
    if (edges.size() + 1 != vertices.size()) {
      return Status::ParseError("node is not a tree: " + line);
    }
    // Re-grow the tree by repeatedly attaching edges whose one endpoint is
    // already present (order in the file is generation order, so edge k
    // attaches vertex k+1 — but do not rely on it; verify instead).
    std::vector<bool> vertex_in(vertices.size(), false);
    std::vector<int> remap(vertices.size(), -1);
    vertex_in[0] = true;
    remap[0] = 0;
    std::vector<bool> edge_used(edges.size(), false);
    for (size_t added = 0; added < edges.size(); ++added) {
      bool progress = false;
      for (size_t ei = 0; ei < edges.size(); ++ei) {
        if (edge_used[ei]) continue;
        const RawEdge& re = edges[ei];
        if (re.a >= vertices.size() || re.b >= vertices.size()) {
          return Status::ParseError("edge endpoint out of range: " + line);
        }
        uint16_t in_v, out_v;
        if (vertex_in[re.a] && !vertex_in[re.b]) {
          in_v = re.a;
          out_v = re.b;
        } else if (vertex_in[re.b] && !vertex_in[re.a]) {
          in_v = re.b;
          out_v = re.a;
        } else {
          continue;
        }
        tree = tree.Extend(static_cast<size_t>(remap[in_v]),
                           vertices[out_v], re.e);
        remap[out_v] = static_cast<int>(tree.num_vertices()) - 1;
        vertex_in[out_v] = true;
        edge_used[ei] = true;
        progress = true;
        break;
      }
      if (!progress) {
        return Status::ParseError("disconnected node: " + line);
      }
    }
    KWSDBG_RETURN_NOT_OK(tree.Validate(schema));
    const uint16_t level = static_cast<uint16_t>(tree.level());
    if (level >= lat.levels_.size()) {
      return Status::ParseError("node level exceeds config: " + line);
    }
    if (!lat.nodes_.empty() && level < lat.nodes_.back().level) {
      return Status::ParseError("node below the previous node's level: " +
                                line);
    }
    NodeId id = static_cast<NodeId>(lat.nodes_.size());
    std::string canonical = CanonicalLabel(tree);
    if (!lat.by_canonical_.emplace(canonical, id).second) {
      return Status::ParseError("duplicate node in file: " + line);
    }
    lat.nodes_.push_back(LatticeNode{id, std::move(tree), level, {}, {}});
    lat.levels_[level].push_back(id);
  }

  // Rebuild parent/child links: each node's children are its leaf-removals.
  for (NodeId id = 0; id < lat.nodes_.size(); ++id) {
    const JoinTree& tree = lat.nodes_[id].tree;
    if (tree.level() == 1) continue;
    for (size_t leaf : tree.LeafIndices()) {
      JoinTree sub = tree.RemoveLeaf(leaf);
      NodeId child = lat.FindByCanonical(CanonicalLabel(sub));
      if (child == kInvalidNode) {
        return Status::ParseError(
            "lattice not closed under sub-networks: missing child of node " +
            std::to_string(id));
      }
      lat.nodes_[id].children.push_back(child);
      lat.nodes_[child].parents.push_back(id);
    }
  }
  lat.copy_sets_ = CopySetIndex::Build(lat.nodes_);
  return lattice;
}

Status SaveLattice(const Lattice& lattice, std::ostream* out) {
  return LatticeIoAccess::Save(lattice, out);
}

Status SaveLatticeFile(const Lattice& lattice, const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::Internal("cannot open '" + path + "' for writing");
  return SaveLattice(lattice, &f);
}

StatusOr<std::unique_ptr<Lattice>> LoadLattice(const SchemaGraph& schema,
                                               std::istream* in) {
  return LatticeIoAccess::Load(schema, in);
}

StatusOr<std::unique_ptr<Lattice>> LoadLatticeFile(const SchemaGraph& schema,
                                                   const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open '" + path + "' for reading");
  return LoadLattice(schema, &f);
}

}  // namespace kwsdbg
