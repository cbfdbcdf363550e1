// SBH (paper Sec. 2.5.3): greedily evaluate the node with the minimum
// expected remaining search space (Eq. 1); SbhState (traversal/node_status.h)
// keeps the score's terms.
#include "traversal/strategy.h"

namespace kwsdbg {

namespace {

class ScoreBasedStrategy : public TraversalStrategy {
 public:
  explicit ScoreBasedStrategy(SbhOptions options) : options_(options) {}

  std::string_view name() const override { return "SBH"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    const internal::RunCounters counters(*evaluator);

    // Per-level p_a from the adaptive model, snapshotted at run start: the
    // verdicts this run produces feed the model for *later* queries, never
    // the schedule in flight, so the run is deterministic given the model
    // state. A cold model yields the 0.5 prior at every level — the
    // schedule is then bit-identical to static SBH @ 0.5.
    const size_t max_level = pl.MaxRetainedLevel();
    std::vector<double> level_pa(max_level + 1, options_.alive_probability);
    if (options_.pa_model != nullptr) {
      const size_t bucket = SelectivityBucketFor(pl, evaluator->index());
      for (size_t level = 1; level <= max_level; ++level) {
        level_pa[level] = options_.pa_model->Estimate(level, bucket);
      }
    }
    SbhState state(pl, std::move(level_pa));

    // Cancellation exit shared by both deadline checks below: classified
    // statuses are all ground truth, so the partial result is safe.
    auto truncated = [&] {
      return counters.Finish(
          internal::BuildTruncatedOutcomes(pl, state.status()));
    };

    for (LocalId n = state.Pick(); n != kNotRetained; n = state.Pick()) {
      if (evaluator->cancelled()) return truncated();
      StatusOr<bool> alive = evaluator->IsAlive(pl.retained()[n]);
      if (internal::IsDeadlineExceeded(alive.status())) return truncated();
      KWSDBG_RETURN_NOT_OK(alive.status());
      state.Classify(n, *alive);
    }

    KWSDBG_ASSIGN_OR_RETURN(TraversalResult result,
                            internal::BuildOutcomes(pl, state.status()));
    return counters.Finish(std::move(result));
  }

 private:
  SbhOptions options_;
};

}  // namespace

namespace internal {

std::unique_ptr<TraversalStrategy> MakeScoreBased(SbhOptions options) {
  return std::make_unique<ScoreBasedStrategy>(options);
}

}  // namespace internal

}  // namespace kwsdbg
