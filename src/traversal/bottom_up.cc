// BU (paper Sec. 2.5.1): classify one MTN at a time, sweeping the MTN's
// sub-lattice from the single-table level upward. Shares nothing across
// MTNs — common descendants are re-evaluated (the contrast with BUWR).
#include <algorithm>
#include <map>

#include "traversal/strategies.h"

namespace kwsdbg {

namespace {

class BottomUpStrategy : public TraversalStrategy {
 public:
  std::string_view name() const override { return "BU"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    const internal::RunCounters counters(*evaluator);
    TraversalResult result;
    for (NodeId m : pl.mtns()) {
      NodeStatusMap status(pl.lattice().num_nodes());
      // Completed MTNs stay in `result`; the current one is kept only if
      // its sweep already classified it.
      auto truncated = [&] {
        internal::AppendOutcomeIfKnown(pl, status, m, &result);
        result.truncated = true;
        return counters.Finish(std::move(result));
      };
      // The MTN's sub-lattice, grouped by level.
      std::map<size_t, std::vector<NodeId>> by_level;
      by_level[pl.lattice().node(m).level].push_back(m);
      for (NodeId d : pl.RetainedDescendants(m)) {
        by_level[pl.lattice().node(d).level].push_back(d);
      }
      for (auto& [level, nodes] : by_level) {
        if (evaluator->cancelled()) return truncated();
        std::sort(nodes.begin(), nodes.end());
        for (NodeId n : nodes) {
          if (status.IsKnown(n)) continue;  // inferred via R2
          StatusOr<bool> alive = evaluator->IsAlive(n);
          if (internal::IsDeadlineExceeded(alive.status())) return truncated();
          KWSDBG_RETURN_NOT_OK(alive.status());
          if (*alive) {
            status.Set(n, NodeStatus::kAlive);
          } else {
            status.MarkDeadWithAncestors(n, pl);
          }
        }
      }
      internal::AppendOutcomeIfKnown(pl, status, m, &result);
    }
    return counters.Finish(std::move(result));
  }
};

}  // namespace

std::unique_ptr<TraversalStrategy> MakeBottomUp() {
  return std::make_unique<BottomUpStrategy>();
}

}  // namespace kwsdbg
