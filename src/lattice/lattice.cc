#include "lattice/lattice.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "lattice/canonical_label.h"

namespace kwsdbg {

CopySetIndex CopySetIndex::Build(const std::vector<LatticeNode>& nodes) {
  // Ids are visited in ascending order, so every bucket comes out ascending.
  std::map<std::vector<RelationCopy>, std::vector<NodeId>> buckets;
  std::vector<RelationCopy> copies;
  for (const LatticeNode& node : nodes) {
    copies.clear();
    for (const RelationCopy& v : node.tree.vertices()) {
      if (v.copy != 0) copies.push_back(v);
    }
    std::sort(copies.begin(), copies.end());
    buckets[copies].push_back(node.id);
  }
  CopySetIndex index;
  index.node_ids_.reserve(nodes.size());
  for (const auto& [key, ids] : buckets) {
    index.copies_.insert(index.copies_.end(), key.begin(), key.end());
    index.key_begin_.push_back(static_cast<uint32_t>(index.copies_.size()));
    index.node_ids_.insert(index.node_ids_.end(), ids.begin(), ids.end());
    index.offsets_.push_back(static_cast<uint32_t>(index.node_ids_.size()));
  }
  return index;
}

std::span<const NodeId> CopySetIndex::Find(
    std::span<const RelationCopy> copies) const {
  size_t lo = 0;
  size_t hi = num_keys();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const std::span<const RelationCopy> k = key(mid);
    if (std::lexicographical_compare(k.begin(), k.end(), copies.begin(),
                                     copies.end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < num_keys() && std::ranges::equal(key(lo), copies)) return bucket(lo);
  return {};
}

const std::vector<NodeId>& Lattice::NodesAtLevel(size_t level) const {
  static const std::vector<NodeId> kEmpty;
  if (level == 0 || level >= levels_.size()) return kEmpty;
  return levels_[level];
}

NodeId Lattice::FindByCanonical(const std::string& canonical) const {
  auto it = by_canonical_.find(canonical);
  return it == by_canonical_.end() ? kInvalidNode : it->second;
}

NodeId Lattice::FindTree(const JoinTree& tree) const {
  return FindByCanonical(CanonicalLabel(tree));
}

std::vector<NodeId> Lattice::Descendants(NodeId id) const {
  std::vector<NodeId> out;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack(nodes_[id].children.begin(),
                            nodes_[id].children.end());
  for (NodeId c : stack) seen[c] = true;
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (NodeId c : nodes_[n].children) {
      if (!seen[c]) {
        seen[c] = true;
        stack.push_back(c);
      }
    }
  }
  return out;
}

std::vector<NodeId> Lattice::Ancestors(NodeId id) const {
  std::vector<NodeId> out;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack(nodes_[id].parents.begin(),
                            nodes_[id].parents.end());
  for (NodeId p : stack) seen[p] = true;
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (NodeId p : nodes_[n].parents) {
      if (!seen[p]) {
        seen[p] = true;
        stack.push_back(p);
      }
    }
  }
  return out;
}

size_t Lattice::TotalDuplicates() const {
  size_t total = 0;
  for (const auto& ls : level_stats_) total += ls.duplicates;
  return total;
}

}  // namespace kwsdbg
