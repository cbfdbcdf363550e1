// BUWR (paper Sec. 2.5.2, Algorithm 3): one global bottom-up sweep over the
// union of all MTNs' sub-lattices with a shared status map, so each common
// descendant is evaluated at most once.
#include <algorithm>

#include "traversal/strategies.h"

namespace kwsdbg {

namespace {

class BottomUpWithReuseStrategy : public TraversalStrategy {
 public:
  std::string_view name() const override { return "BUWR"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    const internal::RunCounters counters(*evaluator);
    NodeStatusMap status(pl.lattice().num_nodes());
    auto truncated = [&] {
      return counters.Finish(internal::BuildTruncatedOutcomes(pl, status));
    };
    for (size_t level = 1; level <= pl.MaxRetainedLevel(); ++level) {
      if (evaluator->cancelled()) return truncated();
      std::vector<NodeId> nodes = pl.RetainedAtLevel(level);
      std::sort(nodes.begin(), nodes.end());
      for (NodeId n : nodes) {
        if (status.IsKnown(n)) continue;  // shared or inferred
        StatusOr<bool> alive = evaluator->IsAlive(n);
        if (internal::IsDeadlineExceeded(alive.status())) return truncated();
        KWSDBG_RETURN_NOT_OK(alive.status());
        if (*alive) {
          status.Set(n, NodeStatus::kAlive);
        } else {
          status.MarkDeadWithAncestors(n, pl);  // R2 (Alg. 3 line 36)
        }
      }
    }
    KWSDBG_ASSIGN_OR_RETURN(TraversalResult result,
                            internal::BuildOutcomes(pl, status));
    return counters.Finish(std::move(result));
  }
};

}  // namespace

std::unique_ptr<TraversalStrategy> MakeBottomUpWithReuse() {
  return std::make_unique<BottomUpWithReuseStrategy>();
}

}  // namespace kwsdbg
