#include "kws/pruned_lattice.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"

namespace kwsdbg {

namespace filters {

NodeFilter MinLevel(size_t min_level) {
  return [min_level](const JoinTree& tree) {
    return tree.level() >= min_level;
  };
}

NodeFilter ContainsRelation(RelationId relation) {
  return [relation](const JoinTree& tree) {
    for (const RelationCopy& v : tree.vertices()) {
      if (v.relation == relation) return true;
    }
    return false;
  };
}

NodeFilter MinKeywords(size_t min_keywords, const KeywordBinding* binding) {
  return [min_keywords, binding](const JoinTree& tree) {
    size_t bound = 0;
    for (const RelationCopy& v : tree.vertices()) {
      if (v.copy != 0 && binding->KeywordFor(v) != nullptr) ++bound;
    }
    return bound >= min_keywords;
  };
}

NodeFilter And(NodeFilter a, NodeFilter b) {
  return [a = std::move(a), b = std::move(b)](const JoinTree& tree) {
    return a(tree) && b(tree);
  };
}

}  // namespace filters

namespace {

size_t NumKeywordCopies(const JoinTree& tree) {
  size_t n = 0;
  for (const RelationCopy& v : tree.vertices()) n += v.copy != 0;
  return n;
}

}  // namespace

PrunedLattice PrunedLattice::Build(const Lattice& lattice,
                                   const KeywordBinding& binding,
                                   const NodeFilter& filter) {
  PrunedLattice pl;
  pl.lattice_ = &lattice;
  pl.binding_ = binding;
  pl.stats_.lattice_nodes = lattice.num_nodes();
  const CopySetIndex& index = lattice.copy_sets();

  // B, the binding's copy set, ascending.
  std::vector<RelationCopy> b;
  b.reserve(binding.num_keywords());
  for (const KeywordAssignment& a : binding.assignments()) {
    b.push_back(a.vertex);
  }
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());

  // ---- Phase 1: keyword-based pruning. A node survives iff every vertex is
  // the free copy or a copy some keyword is bound to, i.e. iff its
  // keyword-copy set is a subset of B: the survivors are the buckets of the
  // keys that are subsets of B. Only their number is kept.
  Timer timer;
  for (size_t i = 0; i < index.num_keys(); ++i) {
    const std::span<const RelationCopy> key = index.key(i);
    if (std::includes(b.begin(), b.end(), key.begin(), key.end())) {
      pl.stats_.surviving_nodes += index.bucket(i).size();
    }
  }
  pl.stats_.prune_millis = timer.ElapsedMillis();

  // ---- Phase 2: find MTNs, retain MTNs + descendants. The surviving total
  // nodes are exactly B's bucket; a candidate is minimal unless removing
  // some leaf keeps it total, i.e. some child still has all |B| copies.
  timer.Reset();
  if (!b.empty()) {
    for (NodeId id : index.Find(b)) {
      bool minimal = true;
      for (NodeId c : lattice.node(id).children) {
        if (NumKeywordCopies(lattice.node(c).tree) == b.size()) {
          minimal = false;
          break;
        }
      }
      if (minimal) pl.mtns_.push_back(id);
    }
  }
  pl.stats_.num_mtns = pl.mtns_.size();

  // Retained = MTNs + descendants (all descendants of survivors survive).
  std::vector<NodeId> stack;
  for (NodeId m : pl.mtns_) {
    pl.retained_set_.Insert(m);
    pl.retained_.push_back(m);
    stack.push_back(m);
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (NodeId c : lattice.node(n).children) {
      if (pl.retained_set_.Contains(c)) continue;
      if (filter && !filter(lattice.node(c).tree)) continue;
      pl.retained_set_.Insert(c);
      pl.retained_.push_back(c);
      stack.push_back(c);
    }
  }
  std::sort(pl.retained_.begin(), pl.retained_.end());
  // Descendant overlap statistics (Fig. 13): N counts multiplicity.
  for (NodeId m : pl.mtns_) {
    pl.stats_.mtn_desc_total += pl.RetainedDescendants(m).size();
  }
  pl.stats_.mtn_desc_unique = pl.retained_.size() - pl.mtns_.size();
  pl.stats_.retained_nodes = pl.retained_.size();

  pl.retained_by_level_.resize(lattice.num_levels() + 1);
  for (NodeId id : pl.retained_) {
    const size_t level = lattice.node(id).level;
    pl.retained_by_level_[level].push_back(id);
    pl.max_retained_level_ = std::max(pl.max_retained_level_, level);
  }
  pl.stats_.mtn_millis = timer.ElapsedMillis();
  return pl;
}

bool PrunedLattice::IsTotal(NodeId id) const {
  const JoinTree& tree = lattice_->node(id).tree;
  for (const KeywordAssignment& a : binding_.assignments()) {
    if (!tree.ContainsVertex(a.vertex)) return false;
  }
  return binding_.num_keywords() > 0;
}

bool PrunedLattice::IsMtn(NodeId id) const {
  return std::binary_search(mtns_.begin(), mtns_.end(), id);
}

size_t PrunedLattice::NodeIdSet::Slot(NodeId id) const {
  // Fibonacci hashing spreads the clustered ids of one interpretation.
  return static_cast<size_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >> 32) &
         (slots_.size() - 1);
}

bool PrunedLattice::NodeIdSet::Contains(NodeId id) const {
  if (slots_.empty()) return false;
  for (size_t s = Slot(id);; s = (s + 1) & (slots_.size() - 1)) {
    if (slots_[s] == id) return true;
    if (slots_[s] == kInvalidNode) return false;
  }
}

bool PrunedLattice::NodeIdSet::Insert(NodeId id) {
  if ((size_ + 1) * 2 > slots_.size()) {
    std::vector<NodeId> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), kInvalidNode);
    size_ = 0;
    for (NodeId o : old) {
      if (o != kInvalidNode) Insert(o);
    }
  }
  size_t s = Slot(id);
  for (; slots_[s] != kInvalidNode; s = (s + 1) & (slots_.size() - 1)) {
    if (slots_[s] == id) return false;
  }
  slots_[s] = id;
  ++size_;
  return true;
}

std::vector<NodeId> PrunedLattice::RetainedChildren(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c : lattice_->node(id).children) {
    if (IsRetained(c)) out.push_back(c);
  }
  return out;
}

std::vector<NodeId> PrunedLattice::RetainedParents(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId p : lattice_->node(id).parents) {
    if (IsRetained(p)) out.push_back(p);
  }
  return out;
}

const std::vector<NodeId>& PrunedLattice::RetainedDescendants(
    NodeId id) const {
  auto it = desc_cache_.find(id);
  if (it != desc_cache_.end()) return it->second;
  std::vector<NodeId> out;
  NodeIdSet seen;
  std::vector<NodeId> stack;
  for (NodeId c : lattice_->node(id).children) {
    if (IsRetained(c) && seen.Insert(c)) stack.push_back(c);
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (NodeId c : lattice_->node(n).children) {
      if (IsRetained(c) && seen.Insert(c)) stack.push_back(c);
    }
  }
  return desc_cache_.emplace(id, std::move(out)).first->second;
}

const std::vector<NodeId>& PrunedLattice::RetainedAncestors(NodeId id) const {
  auto it = asc_cache_.find(id);
  if (it != asc_cache_.end()) return it->second;
  std::vector<NodeId> out;
  NodeIdSet seen;
  std::vector<NodeId> stack;
  for (NodeId p : lattice_->node(id).parents) {
    if (IsRetained(p) && seen.Insert(p)) stack.push_back(p);
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (NodeId p : lattice_->node(n).parents) {
      if (IsRetained(p) && seen.Insert(p)) stack.push_back(p);
    }
  }
  return asc_cache_.emplace(id, std::move(out)).first->second;
}

const std::vector<NodeId>& PrunedLattice::RetainedAtLevel(
    size_t level) const {
  static const std::vector<NodeId> kEmpty;
  if (level == 0 || level >= retained_by_level_.size()) return kEmpty;
  return retained_by_level_[level];
}

}  // namespace kwsdbg
