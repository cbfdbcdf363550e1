// RE baseline (paper Sec. 3.8): skip the lattice's inference rules entirely —
// issue one SQL query per retained node. Complete (same MPANs as the lattice
// approach, which tests exploit by using RE as the oracle) but redundant.
#include "baselines/return_everything.h"
#include "common/timer.h"

namespace kwsdbg {

namespace {

class ReturnEverythingStrategy : public TraversalStrategy {
 public:
  std::string_view name() const override { return "RE"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    Timer total;
    const size_t sql_before = evaluator->sql_executed();
    const double ms_before = evaluator->sql_millis();
    NodeStatusMap status(pl.num_retained());
    for (LocalId n = 0; n < pl.num_retained(); ++n) {
      KWSDBG_ASSIGN_OR_RETURN(bool alive,
                              evaluator->IsAlive(pl.retained()[n]));
      status.Set(n, alive ? NodeStatus::kAlive : NodeStatus::kDead);
    }
    KWSDBG_ASSIGN_OR_RETURN(TraversalResult result,
                            internal::BuildOutcomes(pl, status));
    result.stats.sql_queries = evaluator->sql_executed() - sql_before;
    result.stats.sql_millis = evaluator->sql_millis() - ms_before;
    result.stats.total_millis = total.ElapsedMillis();
    return result;
  }
};

}  // namespace

std::unique_ptr<TraversalStrategy> MakeReturnEverything() {
  return std::make_unique<ReturnEverythingStrategy>();
}

}  // namespace kwsdbg
