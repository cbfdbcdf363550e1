// TD (paper Sec. 2.5.1): classify one MTN at a time, sweeping its sub-lattice
// from the MTN down to the single-table level; R1 propagates aliveness to all
// descendants. No sharing across MTNs.
#include <algorithm>
#include <map>

#include "traversal/strategies.h"

namespace kwsdbg {

namespace {

class TopDownStrategy : public TraversalStrategy {
 public:
  std::string_view name() const override { return "TD"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    const internal::RunCounters counters(*evaluator);
    TraversalResult result;
    for (NodeId m : pl.mtns()) {
      NodeStatusMap status(pl.lattice().num_nodes());
      auto truncated = [&] {
        internal::AppendOutcomeIfKnown(pl, status, m, &result);
        result.truncated = true;
        return counters.Finish(std::move(result));
      };
      std::map<size_t, std::vector<NodeId>, std::greater<size_t>> by_level;
      by_level[pl.lattice().node(m).level].push_back(m);
      for (NodeId d : pl.RetainedDescendants(m)) {
        by_level[pl.lattice().node(d).level].push_back(d);
      }
      for (auto& [level, nodes] : by_level) {
        if (evaluator->cancelled()) return truncated();
        std::sort(nodes.begin(), nodes.end());
        for (NodeId n : nodes) {
          if (status.IsKnown(n)) continue;  // inferred via R1
          StatusOr<bool> alive = evaluator->IsAlive(n);
          if (internal::IsDeadlineExceeded(alive.status())) return truncated();
          KWSDBG_RETURN_NOT_OK(alive.status());
          if (*alive) {
            status.MarkAliveWithDescendants(n, pl);
          } else {
            status.Set(n, NodeStatus::kDead);
          }
        }
      }
      internal::AppendOutcomeIfKnown(pl, status, m, &result);
    }
    return counters.Finish(std::move(result));
  }
};

}  // namespace

std::unique_ptr<TraversalStrategy> MakeTopDown() {
  return std::make_unique<TopDownStrategy>();
}

}  // namespace kwsdbg
