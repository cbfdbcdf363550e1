#include "debugger/frontier.h"

#include <vector>

namespace kwsdbg {

StatusOr<std::string> FrontierToDot(const PrunedLattice& pl,
                                    const MtnOutcome& outcome) {
  if (outcome.alive) {
    return Status::InvalidArgument(
        "the MTN is an answer query; there is no non-answer frontier");
  }
  const Lattice& lattice = pl.lattice();
  const LocalId m = pl.LocalOf(outcome.mtn);
  if (m == kNotRetained) {
    return Status::InvalidArgument("the MTN is not in this search space");
  }
  std::vector<uint64_t> sub(pl.DescendantRow(m).begin(),
                            pl.DescendantRow(m).end());
  RowAdd(sub, m);

  // Reconstruct the classification: alive = descendants-of-MPANs (closed
  // downward by R1), dead = ancestors-of-culprits within the sub-lattice
  // (closed upward by R2). For a fully classified dead MTN these two sets
  // partition the sub-lattice.
  const size_t words = pl.row_words();
  std::vector<uint64_t> alive(words, 0), dead(words, 0), mpans(words, 0),
      culprits(words, 0);
  for (NodeId id : outcome.mpans) {
    const LocalId n = pl.LocalOf(id);
    if (n == kNotRetained) continue;
    RowAdd(mpans, n);
    RowAdd(alive, n);
    for (size_t w = 0; w < words; ++w) alive[w] |= pl.DescendantRow(n)[w];
  }
  for (NodeId id : outcome.culprits) {
    const LocalId n = pl.LocalOf(id);
    if (n == kNotRetained) continue;
    RowAdd(culprits, n);
    RowAdd(dead, n);
    for (size_t w = 0; w < words; ++w) {
      dead[w] |= pl.AncestorRow(n)[w] & sub[w];
    }
  }

  std::string out = "digraph frontier {\n  rankdir=BT;\n";
  ForEachInRow(sub, [&](LocalId l) {
    const NodeId n = pl.retained()[l];
    std::string label = lattice.node(n).tree.ToString(lattice.schema());
    std::string escaped;
    for (char c : label) {
      if (c == '"') escaped += "\\\"";
      else escaped += c;
    }
    out += "  n" + std::to_string(n) + " [label=\"" + escaped + "\"";
    if (RowHas(alive, l)) {
      out += ", color=green";
    } else if (RowHas(dead, l)) {
      out += ", color=red";
    }
    if (RowHas(mpans, l)) out += ", shape=doublecircle";
    if (RowHas(culprits, l)) out += ", shape=doubleoctagon";
    if (l == m) out += ", penwidth=3";
    out += "];\n";
  });
  ForEachInRow(sub, [&](LocalId l) {
    const NodeId n = pl.retained()[l];
    for (NodeId p : lattice.node(n).parents) {
      const LocalId lp = pl.LocalOf(p);
      if (lp != kNotRetained && RowHas(sub, lp)) {
        out += "  n" + std::to_string(n) + " -> n" + std::to_string(p) +
               ";\n";
      }
    }
  });
  out += "}\n";
  return out;
}

}  // namespace kwsdbg
