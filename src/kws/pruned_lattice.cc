#include "kws/pruned_lattice.h"

#include <algorithm>
#include <numeric>

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
  // A child sits one level below its parent, so one pass from the top level
  // down gathers each level from the level above, without a set over node
  // ids; the filter sees each distinct candidate once.
  const size_t top =
      pl.mtns_.empty() ? 0 : lattice.node(pl.mtns_.back()).level;
  auto mtn = pl.mtns_.rbegin();
  std::vector<NodeId> candidates;  // Children of the level above.
  for (size_t level = top; level >= 1; --level) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    const size_t first = pl.retained_.size();
    for (NodeId c : candidates) {
      if (!filter || filter(lattice.node(c).tree)) pl.retained_.push_back(c);
    }
    for (; mtn != pl.mtns_.rend() && lattice.node(*mtn).level == level;
         ++mtn) {
      pl.retained_.push_back(*mtn);
    }
    candidates.clear();
    for (size_t i = first; i < pl.retained_.size(); ++i) {
      const std::vector<NodeId>& children =
          lattice.node(pl.retained_[i]).children;
      candidates.insert(candidates.end(), children.begin(), children.end());
    }
  }
  // No MTN is a child of a retained node (that parent would be total and
  // not minimal), so the levels hold no duplicates.
  std::sort(pl.retained_.begin(), pl.retained_.end());
  const size_t r = pl.retained_.size();

  // Local ids follow retained(): ascending id, hence level order.
  pl.level_begin_.assign(
      (r == 0 ? 0 : lattice.node(pl.retained_.back()).level) + 2, 0);
  for (LocalId l = 0; l < r; ++l) {
    const size_t level = lattice.node(pl.retained_[l]).level;
    KWSDBG_DCHECK(l == 0 || lattice.node(pl.retained_[l - 1]).level <= level)
        << "lattice ids must ascend with level";
    ++pl.level_begin_[level + 1];
  }
  std::partial_sum(pl.level_begin_.begin(), pl.level_begin_.end(),
                   pl.level_begin_.begin());
  for (NodeId m : pl.mtns_) pl.mtn_locals_.push_back(pl.LocalOf(m));
  // CSR children, each looked up in the level below. No parent links are
  // kept: a node's lattice parents far outnumber its retained ones, and the
  // ancestor rows below need only the children.
  pl.child_begin_.reserve(r + 1);
  for (NodeId id : pl.retained_) {
    const LatticeNode& node = lattice.node(id);
    const auto [begin, end] = pl.LevelRange(node.level - 1);
    const auto first = pl.retained_.begin() + begin;
    const auto last = pl.retained_.begin() + end;
    for (NodeId c : node.children) {
      const auto it = std::lower_bound(first, last, c);
      if (it != last && *it == c) {
        pl.children_.push_back(
            static_cast<LocalId>(it - pl.retained_.begin()));
      }
    }
    pl.child_begin_.push_back(static_cast<uint32_t>(pl.children_.size()));
  }

  // Closure rows. Children precede their parents in local order, so an
  // ascending pass ORs each finished child row into its parent's descendant
  // row, and a descending pass ORs each finished ancestor row into its
  // children's.
  const size_t words = (r + 63) / 64;
  pl.row_words_ = words;
  pl.desc_rows_.assign(r * words, 0);
  pl.anc_rows_.assign(r * words, 0);
  auto absorb = [words](std::vector<uint64_t>& rows, LocalId into,
                        LocalId from) {
    const std::span<uint64_t> row(rows.data() + into * words, words);
    for (size_t w = 0; w < words; ++w) row[w] |= rows[from * words + w];
    RowAdd(row, from);
  };
  for (LocalId l = 0; l < r; ++l) {
    for (LocalId c : pl.Children(l)) absorb(pl.desc_rows_, l, c);
  }
  for (LocalId l = static_cast<LocalId>(r); l-- > 0;) {
    for (LocalId c : pl.Children(l)) absorb(pl.anc_rows_, c, l);
  }

  // Descendant overlap statistics (Fig. 13): N counts multiplicity.
  for (LocalId m : pl.mtn_locals_) {
    for (uint64_t word : pl.DescendantRow(m)) {
      pl.stats_.mtn_desc_total += std::popcount(word);
    }
  }
  pl.stats_.mtn_desc_unique = r - pl.mtns_.size();
  pl.stats_.retained_nodes = r;
  pl.stats_.mtn_millis = timer.ElapsedMillis();
  return pl;
}

LocalId PrunedLattice::LocalOf(NodeId id) const {
  auto it = std::lower_bound(retained_.begin(), retained_.end(), id);
  if (it == retained_.end() || *it != id) return kNotRetained;
  return static_cast<LocalId>(it - retained_.begin());
}

size_t PrunedLattice::LevelOf(LocalId l) const {
  return std::upper_bound(level_begin_.begin(), level_begin_.end(), l) -
         level_begin_.begin() - 1;
}

std::pair<LocalId, LocalId> PrunedLattice::LevelRange(size_t level) const {
  if (level + 1 >= level_begin_.size()) return {0, 0};
  return {level_begin_[level], level_begin_[level + 1]};
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

}  // namespace kwsdbg
