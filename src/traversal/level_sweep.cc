// BU, TD, BUWR and TDWR (paper Sec. 2.5.1-2.5.2) as one level sweep over
// the retained sub-lattice. Bottom-up sweeps start at the single-table
// level, top-down ones at the top. BU and TD classify one MTN at a time
// over its sub-lattice Desc+(m) with a fresh status map, sharing nothing
// across MTNs (common descendants are re-evaluated); BUWR (Algorithm 3) and
// TDWR sweep the union of all MTNs' sub-lattices once with a shared map, so
// each common descendant is evaluated at most once.
#include "traversal/strategy.h"

namespace kwsdbg {

namespace {

class LevelSweepStrategy : public TraversalStrategy {
 public:
  explicit LevelSweepStrategy(TraversalKind kind)
      : kind_(kind),
        bottom_up_(kind == TraversalKind::kBottomUp ||
                   kind == TraversalKind::kBottomUpWithReuse),
        reuse_(kind == TraversalKind::kBottomUpWithReuse ||
               kind == TraversalKind::kTopDownWithReuse) {}

  std::string_view name() const override { return TraversalKindName(kind_); }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    const internal::RunCounters counters(*evaluator);
    if (reuse_) {
      NodeStatusMap status(pl.num_retained());
      const std::vector<uint64_t> all(pl.row_words(), ~uint64_t{0});
      KWSDBG_ASSIGN_OR_RETURN(
          bool done,
          Sweep(pl, evaluator, all, 1, pl.MaxRetainedLevel(), &status));
      if (!done) {
        return counters.Finish(internal::BuildTruncatedOutcomes(pl, status));
      }
      KWSDBG_ASSIGN_OR_RETURN(TraversalResult result,
                              internal::BuildOutcomes(pl, status));
      return counters.Finish(std::move(result));
    }
    TraversalResult result;
    std::vector<uint64_t> scope;
    for (LocalId m : pl.mtn_locals()) {
      NodeStatusMap status(pl.num_retained());
      scope.assign(pl.DescendantRow(m).begin(), pl.DescendantRow(m).end());
      RowAdd(scope, m);
      // Desc+(m) holds a node at every level from its lowest node's up to
      // m's, and its first bit is its lowest node (local ids are in level
      // order).
      size_t w = 0;
      while (scope[w] == 0) ++w;
      const size_t lo =
          pl.LevelOf(static_cast<LocalId>(w * 64 + std::countr_zero(scope[w])));
      KWSDBG_ASSIGN_OR_RETURN(
          bool done,
          Sweep(pl, evaluator, scope, lo, pl.LevelOf(m), &status));
      // Completed MTNs stay in `result`; a cut one only if its sweep
      // already classified it.
      internal::AppendOutcomeIfKnown(pl, status, m, &result);
      if (!done) {
        result.truncated = true;
        return counters.Finish(std::move(result));
      }
    }
    return counters.Finish(std::move(result));
  }

 private:
  /// Evaluates the unknown nodes of `scope` level by level, from `lo` up to
  /// `hi` or from `hi` down to `lo`, in ascending local id inside a level,
  /// polling cancellation at each level. Returns false once cancelled.
  ///
  /// R1 and R2 both apply to every verdict, but the direction decides which
  /// one classifies anything: going up, a node's descendants are already
  /// known, so R2 carries deadness upward; going down, its ancestors inside
  /// the scope are, so R1 carries aliveness downward.
  StatusOr<bool> Sweep(const PrunedLattice& pl, QueryEvaluator* evaluator,
                       std::span<const uint64_t> scope, size_t lo, size_t hi,
                       NodeStatusMap* status) const {
    for (size_t i = lo; i <= hi; ++i) {
      const size_t level = bottom_up_ ? i : lo + hi - i;
      if (evaluator->cancelled()) return false;
      const auto [begin, end] = pl.LevelRange(level);
      for (LocalId n = begin; n < end; ++n) {
        if (!RowHas(scope, n) || status->IsKnown(n)) continue;
        StatusOr<bool> alive = evaluator->IsAlive(pl.retained()[n]);
        if (internal::IsDeadlineExceeded(alive.status())) return false;
        KWSDBG_RETURN_NOT_OK(alive.status());
        if (*alive) {
          status->MarkAliveWithDescendants(n, pl);
        } else {
          status->MarkDeadWithAncestors(n, pl);
        }
      }
    }
    return true;
  }

  TraversalKind kind_;
  bool bottom_up_;
  bool reuse_;
};

}  // namespace

namespace internal {

std::unique_ptr<TraversalStrategy> MakeLevelSweep(TraversalKind kind) {
  return std::make_unique<LevelSweepStrategy>(kind);
}

}  // namespace internal

}  // namespace kwsdbg
