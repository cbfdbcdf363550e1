// TDWR (paper Sec. 2.5.2): the top-down twin of BUWR — one global top-down
// sweep with a shared status map; R1 propagates aliveness downward across
// all MTNs' sub-lattices at once.
#include <algorithm>

#include "traversal/strategies.h"

namespace kwsdbg {

namespace {

class TopDownWithReuseStrategy : public TraversalStrategy {
 public:
  std::string_view name() const override { return "TDWR"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    const internal::RunCounters counters(*evaluator);
    NodeStatusMap status(pl.lattice().num_nodes());
    auto truncated = [&] {
      return counters.Finish(internal::BuildTruncatedOutcomes(pl, status));
    };
    for (size_t level = pl.MaxRetainedLevel(); level >= 1; --level) {
      if (evaluator->cancelled()) return truncated();
      std::vector<NodeId> nodes = pl.RetainedAtLevel(level);
      std::sort(nodes.begin(), nodes.end());
      for (NodeId n : nodes) {
        if (status.IsKnown(n)) continue;  // shared or inferred
        StatusOr<bool> alive = evaluator->IsAlive(n);
        if (internal::IsDeadlineExceeded(alive.status())) return truncated();
        KWSDBG_RETURN_NOT_OK(alive.status());
        if (*alive) {
          status.MarkAliveWithDescendants(n, pl);  // R1
        } else {
          status.Set(n, NodeStatus::kDead);
        }
      }
    }
    KWSDBG_ASSIGN_OR_RETURN(TraversalResult result,
                            internal::BuildOutcomes(pl, status));
    return counters.Finish(std::move(result));
  }
};

}  // namespace

std::unique_ptr<TraversalStrategy> MakeTopDownWithReuse() {
  return std::make_unique<TopDownWithReuseStrategy>();
}

}  // namespace kwsdbg
