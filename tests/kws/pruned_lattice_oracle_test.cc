// Differential wall for Phases 1-2. PrunedLattice::Build reads the
// lattice's copy-set index; the oracle below is the per-node scan it
// replaced: every node tested for unbound copies, every survivor for
// totality, every total survivor for a total child, then the walk down from
// the MTNs. Both must agree on the MTNs in order, the retained set and its
// level ranges, membership, and every PruneStats count; and the local-id
// view Phase 3 reads must agree with the lattice's own links: local ids
// round-trip, CSR children are the lattice links restricted to the
// retained set, and each closure row is the walk over retained children or
// parents — on the paper workload over DBLife, on the toy and e-commerce
// schemas, under random NodeFilters, and on hand-built bindings the binder
// never produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "datasets/dblife.h"
#include "datasets/ecommerce.h"
#include "datasets/toy_product_db.h"
#include "datasets/workload.h"
#include "kws/pruned_lattice.h"
#include "lattice/canonical_label.h"
#include "lattice/lattice_generator.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace {

struct OracleResult {
  size_t surviving = 0;
  std::vector<NodeId> mtns;
  std::vector<bool> retained_mask;
  std::vector<NodeId> retained;
  size_t desc_total = 0;
};

bool OracleTotal(const JoinTree& tree, const KeywordBinding& binding) {
  if (binding.num_keywords() == 0) return false;
  for (size_t i = 0; i < binding.num_keywords(); ++i) {
    if (!tree.ContainsVertex(binding.VertexFor(i))) return false;
  }
  return true;
}

OracleResult OracleBuild(const Lattice& lattice, const KeywordBinding& binding,
                         const NodeFilter& filter) {
  OracleResult out;
  const size_t n = lattice.num_nodes();
  std::vector<bool> surviving(n, false);
  for (NodeId id = 0; id < n; ++id) {
    bool ok = true;
    for (const RelationCopy& v : lattice.node(id).tree.vertices()) {
      if (v.copy != 0 && !binding.IsBound(v)) {
        ok = false;
        break;
      }
    }
    surviving[id] = ok;
    out.surviving += ok;
  }
  for (NodeId id = 0; id < n; ++id) {
    if (!surviving[id] || !OracleTotal(lattice.node(id).tree, binding)) {
      continue;
    }
    bool minimal = true;
    for (NodeId c : lattice.node(id).children) {
      if (surviving[c] && OracleTotal(lattice.node(c).tree, binding)) {
        minimal = false;
      }
    }
    if (minimal) out.mtns.push_back(id);
  }
  out.retained_mask.assign(n, false);
  std::vector<NodeId> stack;
  for (NodeId m : out.mtns) {
    out.retained_mask[m] = true;
    stack.push_back(m);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId c : lattice.node(id).children) {
      if (out.retained_mask[c]) continue;
      if (filter && !filter(lattice.node(c).tree)) continue;
      out.retained_mask[c] = true;
      stack.push_back(c);
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (out.retained_mask[id]) out.retained.push_back(id);
  }
  for (NodeId m : out.mtns) {
    std::vector<bool> seen(n, false);
    std::vector<NodeId> todo = {m};
    while (!todo.empty()) {
      const NodeId id = todo.back();
      todo.pop_back();
      for (NodeId c : lattice.node(id).children) {
        if (!out.retained_mask[c] || seen[c]) continue;
        seen[c] = true;
        ++out.desc_total;
        todo.push_back(c);
      }
    }
  }
  return out;
}

/// Nodes reachable from `id` through retained children (`down`) or retained
/// parents, ascending: what a closure row must hold.
std::vector<NodeId> RetainedWalk(const Lattice& lattice,
                                 const std::vector<bool>& retained, NodeId id,
                                 bool down) {
  std::set<NodeId> seen;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    const LatticeNode& node = lattice.node(stack.back());
    stack.pop_back();
    for (NodeId next : down ? node.children : node.parents) {
      if (retained[next] && seen.insert(next).second) stack.push_back(next);
    }
  }
  return {seen.begin(), seen.end()};
}

/// The retained members of `ids`, ascending.
std::vector<NodeId> RetainedOnly(std::vector<NodeId> ids,
                                 const std::vector<bool>& retained) {
  std::erase_if(ids, [&](NodeId id) { return !retained[id]; });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<NodeId> RowNodes(const PrunedLattice& pl,
                             std::span<const uint64_t> row) {
  std::vector<NodeId> out;
  ForEachInRow(row, [&](LocalId l) { out.push_back(pl.retained()[l]); });
  return out;
}

/// The local-id view against the lattice's links (see the file comment).
void ExpectLocalViewMatches(const Lattice& lattice, const PrunedLattice& pl,
                            const OracleResult& want, bool filtered) {
  ASSERT_EQ(pl.num_retained(), want.retained.size());
  EXPECT_EQ(pl.row_words(), (want.retained.size() + 63) / 64);
  ASSERT_EQ(pl.mtn_locals().size(), want.mtns.size());
  for (size_t i = 0; i < want.mtns.size(); ++i) {
    EXPECT_EQ(pl.retained()[pl.mtn_locals()[i]], want.mtns[i]);
  }
  for (LocalId l = 0; l < pl.num_retained(); ++l) {
    const NodeId id = pl.retained()[l];
    ASSERT_EQ(pl.LocalOf(id), l) << "node " << id;
    std::vector<LocalId> children;
    for (NodeId c : lattice.node(id).children) {
      if (want.retained_mask[c]) children.push_back(pl.LocalOf(c));
    }
    EXPECT_TRUE(std::ranges::equal(pl.Children(l), children)) << "node " << id;
    const std::vector<NodeId> desc =
        RetainedWalk(lattice, want.retained_mask, id, /*down=*/true);
    const std::vector<NodeId> anc =
        RetainedWalk(lattice, want.retained_mask, id, /*down=*/false);
    EXPECT_EQ(RowNodes(pl, pl.DescendantRow(l)), desc) << "node " << id;
    EXPECT_EQ(RowNodes(pl, pl.AncestorRow(l)), anc) << "node " << id;
    if (!filtered) {
      EXPECT_EQ(desc,
                RetainedOnly(lattice.Descendants(id), want.retained_mask))
          << "node " << id;
      EXPECT_EQ(anc, RetainedOnly(lattice.Ancestors(id), want.retained_mask))
          << "node " << id;
    }
  }
}

void ExpectMatchesOracle(const Lattice& lattice, const KeywordBinding& binding,
                         const NodeFilter& filter, const std::string& what) {
  SCOPED_TRACE(what);
  const PrunedLattice pl = PrunedLattice::Build(lattice, binding, filter);
  const OracleResult want = OracleBuild(lattice, binding, filter);
  EXPECT_EQ(pl.mtns(), want.mtns);
  EXPECT_EQ(pl.retained(), want.retained);
  size_t max_level = 0;
  for (size_t level = 0; level <= lattice.num_levels() + 1; ++level) {
    std::vector<NodeId> at_level;
    for (NodeId id : want.retained) {
      if (lattice.node(id).level == level) at_level.push_back(id);
    }
    if (!at_level.empty()) max_level = level;
    const auto [begin, end] = pl.LevelRange(level);
    EXPECT_EQ(std::vector<NodeId>(pl.retained().begin() + begin,
                                  pl.retained().begin() + end),
              at_level)
        << "level " << level;
  }
  EXPECT_EQ(pl.MaxRetainedLevel(), max_level);
  for (NodeId id = 0; id < lattice.num_nodes(); ++id) {
    ASSERT_EQ(pl.IsRetained(id), want.retained_mask[id]) << "node " << id;
    const LocalId l = pl.LocalOf(id);
    if (l != kNotRetained) {
      ASSERT_EQ(pl.retained()[l], id) << "node " << id;
    }
    ASSERT_EQ(pl.IsMtn(id), std::binary_search(want.mtns.begin(),
                                               want.mtns.end(), id))
        << "node " << id;
  }
  const PruneStats& s = pl.stats();
  EXPECT_EQ(s.lattice_nodes, lattice.num_nodes());
  EXPECT_EQ(s.surviving_nodes, want.surviving);
  EXPECT_EQ(s.num_mtns, want.mtns.size());
  EXPECT_EQ(s.retained_nodes, want.retained.size());
  EXPECT_EQ(s.mtn_desc_total, want.desc_total);
  EXPECT_EQ(s.mtn_desc_unique, want.retained.size() - want.mtns.size());
  ExpectLocalViewMatches(lattice, pl, want, filter != nullptr);
}

/// A deterministic pseudo-random filter: keeps about two thirds of the
/// nodes, chosen by a seeded hash of the canonical label.
NodeFilter RandomFilter(uint64_t seed) {
  return [seed](const JoinTree& tree) {
    const std::string label = CanonicalLabel(tree);
    return SplitMix64(seed ^ Checksum64(label.data(), label.size())) % 3 != 0;
  };
}

/// Checks Build against the oracle with no filter, two random filters and
/// two ready-made ones.
void ExpectMatchesOracleUnderFilters(const Lattice& lattice,
                                     const KeywordBinding& binding,
                                     const std::string& what) {
  ExpectMatchesOracle(lattice, binding, nullptr, what);
  ExpectMatchesOracle(lattice, binding, RandomFilter(1), what + " random 1");
  ExpectMatchesOracle(lattice, binding, RandomFilter(2), what + " random 2");
  ExpectMatchesOracle(lattice, binding, filters::MinLevel(2),
                      what + " min level 2");
  ExpectMatchesOracle(lattice, binding, filters::ContainsRelation(0),
                      what + " contains relation 0");
}

std::unique_ptr<Lattice> Generate(const SchemaGraph& schema, size_t max_joins,
                                  size_t copies, CopyPolicy policy) {
  LatticeConfig config;
  config.max_joins = max_joins;
  config.num_keyword_copies = copies;
  config.copy_policy = policy;
  auto lattice = LatticeGenerator::Generate(schema, config);
  EXPECT_TRUE(lattice.ok()) << lattice.status().ToString();
  return std::move(*lattice);
}

/// The keyword copies the lattice has, ascending.
std::vector<RelationCopy> KeywordCopies(const Lattice& lattice) {
  std::vector<RelationCopy> out;
  for (NodeId id : lattice.NodesAtLevel(1)) {
    const RelationCopy& v = lattice.node(id).tree.vertex(0);
    if (v.copy != 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

KeywordBinding BindingOf(const std::vector<RelationCopy>& copies) {
  std::vector<KeywordAssignment> assignments;
  for (size_t i = 0; i < copies.size(); ++i) {
    std::string keyword = "k";
    keyword += std::to_string(i);
    assignments.push_back({std::move(keyword), copies[i]});
  }
  return KeywordBinding(std::move(assignments));
}

/// Every binding of up to three of the lattice's keyword copies, plus one
/// binding of all of them.
void ExpectAllSmallBindingsMatch(const Lattice& lattice) {
  const std::vector<RelationCopy> copies = KeywordCopies(lattice);
  ASSERT_FALSE(copies.empty());
  const size_t c = copies.size();
  for (size_t i = 0; i < c; ++i) {
    ExpectMatchesOracleUnderFilters(lattice, BindingOf({copies[i]}),
                                    "1 copy");
    for (size_t j = i + 1; j < c; ++j) {
      ExpectMatchesOracleUnderFilters(
          lattice, BindingOf({copies[i], copies[j]}), "2 copies");
      for (size_t k = j + 1; k < c; ++k) {
        ExpectMatchesOracle(lattice,
                            BindingOf({copies[i], copies[j], copies[k]}),
                            nullptr, "3 copies");
      }
    }
  }
  ExpectMatchesOracleUnderFilters(lattice, BindingOf(copies), "every copy");
}

class PrunedLatticeOracleTest : public testing::TestWithParam<size_t> {};

TEST_P(PrunedLatticeOracleTest, PaperWorkloadOnDblife) {
  const size_t level = GetParam();
  auto ds = GenerateDblife(DblifeConfig{});
  ASSERT_TRUE(ds.ok());
  // The benchmarks' lattice configuration (bench/bench_util.cc).
  auto lattice = Generate(ds->schema, level - 1, 3,
                          CopyPolicy::kTextRelationsOnly);
  const InvertedIndex index = InvertedIndex::Build(*ds->db);
  KeywordBinder binder(&ds->schema, &index, 3);
  size_t interpretations = 0;
  for (const WorkloadQuery& q : PaperWorkload()) {
    for (const KeywordBinding& binding : binder.Bind(q.text).interpretations) {
      ExpectMatchesOracleUnderFilters(
          *lattice, binding, q.id + " @ " + binding.ToString(ds->schema));
      ++interpretations;
    }
  }
  EXPECT_EQ(interpretations, 67u);
}

INSTANTIATE_TEST_SUITE_P(Levels, PrunedLatticeOracleTest,
                         testing::Values(3, 5));

TEST(PrunedLatticeOracleTest, ToySchema) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  for (size_t max_joins : {1, 2, 3}) {
    SCOPED_TRACE("max_joins " + std::to_string(max_joins));
    ExpectAllSmallBindingsMatch(
        *Generate(ds->schema, max_joins, 2, CopyPolicy::kTextRelationsOnly));
  }
  ExpectAllSmallBindingsMatch(
      *Generate(ds->schema, 2, 3, CopyPolicy::kAllRelations));
}

TEST(PrunedLatticeOracleTest, EcommerceSchema) {
  auto ds = GenerateEcommerce();
  ASSERT_TRUE(ds.ok());
  ExpectAllSmallBindingsMatch(
      *Generate(ds->schema, 3, 2, CopyPolicy::kTextRelationsOnly));
}

TEST(PrunedLatticeOracleTest, HandBuiltBindings) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = Generate(ds->schema, 2, 2, CopyPolicy::kTextRelationsOnly);
  const RelationId item = *ds->schema.RelationIdByName("Item");
  const RelationId color = *ds->schema.RelationIdByName("Color");

  // k = 0: the free-copy nodes survive, and nothing is total.
  const KeywordBinding none(std::vector<KeywordAssignment>{});
  ExpectMatchesOracleUnderFilters(*lattice, none, "k = 0");
  const PrunedLattice pl = PrunedLattice::Build(*lattice, none);
  EXPECT_GT(pl.stats().surviving_nodes, 0u);
  EXPECT_TRUE(pl.mtns().empty());
  EXPECT_TRUE(pl.retained().empty());

  // A copy the lattice lacks (it has two per relation): no MTN, and the
  // survivors are those of the other keyword alone.
  const KeywordBinding missing({{"red", {color, 1}}, {"x", {item, 3}}});
  ExpectMatchesOracleUnderFilters(*lattice, missing, "missing copy");
  EXPECT_TRUE(PrunedLattice::Build(*lattice, missing).mtns().empty());
  EXPECT_EQ(
      PrunedLattice::Build(*lattice, missing).stats().surviving_nodes,
      PrunedLattice::Build(*lattice, KeywordBinding({{"red", {color, 1}}}))
          .stats()
          .surviving_nodes);

  // Two keywords on one relation take two of its copies (KeywordBinding
  // rejects two keywords on one copy, which is what makes B's bucket the
  // total nodes).
  const KeywordBinding same_relation(
      {{"a", {item, 1}}, {"b", {item, 2}}, {"red", {color, 1}}});
  ExpectMatchesOracleUnderFilters(*lattice, same_relation,
                                  "two keywords on Item");
}

}  // namespace
}  // namespace kwsdbg
