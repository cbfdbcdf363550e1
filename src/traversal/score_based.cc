// SBH (paper Sec. 2.5.3): greedily evaluate the node with the minimum
// expected remaining search space (Eq. 1).
//
// With S(m_i) = the unknown-status nodes in Desc+(m_i) and
// W(n) = |{ m_i : n in Desc+(m_i) }| for unknown n (0 once classified),
// Eq. 1 decomposes (see the paper's three-summand form) into
//
//   Score(n_j) = TotalW - W(n_j) - (1 - p_a) * A(n_j) - p_a * D(n_j)
//
// where A(n_j) / D(n_j) sum W over n_j's unknown retained ancestors /
// descendants. Minimizing Score is maximizing
// W(n_j) + (1-p_a) A(n_j) + p_a D(n_j), which this implementation maintains
// incrementally: classifying node u subtracts its old W from the D of its
// ancestors and the A of its descendants.
#include <algorithm>

#include "traversal/strategies.h"

namespace kwsdbg {

namespace {

class ScoreBasedStrategy : public TraversalStrategy {
 public:
  explicit ScoreBasedStrategy(SbhOptions options) : options_(options) {}

  std::string_view name() const override { return "SBH"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    const internal::RunCounters counters(*evaluator);
    const size_t num_nodes = pl.lattice().num_nodes();
    NodeStatusMap status(num_nodes);

    // Per-level p_a from the adaptive model, snapshotted at run start: the
    // verdicts this run produces feed the model for *later* queries, never
    // the schedule in flight, so the run is deterministic given the model
    // state. A cold model yields the 0.5 prior at every level — the
    // schedule is then bit-identical to static SBH @ 0.5.
    std::vector<double> level_pa;
    if (options_.pa_model != nullptr) {
      const size_t bucket = SelectivityBucketFor(pl, evaluator->index());
      const size_t max_level = pl.MaxRetainedLevel();
      level_pa.resize(max_level + 1, PaModel::kPrior);
      for (size_t level = 1; level <= max_level; ++level) {
        level_pa[level] = options_.pa_model->Estimate(level, bucket);
      }
    }

    // W: how many MTN search spaces each node belongs to.
    std::vector<int64_t> w(num_nodes, 0);
    for (NodeId m : pl.mtns()) {
      ++w[m];
      for (NodeId d : pl.RetainedDescendants(m)) ++w[d];
    }
    // A/D: sums of W over unknown retained ancestors / descendants.
    std::vector<int64_t> a_sum(num_nodes, 0), d_sum(num_nodes, 0);
    for (NodeId n : pl.retained()) {
      for (NodeId anc : pl.RetainedAncestors(n)) a_sum[n] += w[anc];
      for (NodeId desc : pl.RetainedDescendants(n)) d_sum[n] += w[desc];
    }

    // Classifying u zeroes its W and shrinks the A/D of its closure.
    auto on_classified = [&](NodeId u) {
      const int64_t delta = w[u];
      if (delta == 0) return;
      w[u] = 0;
      for (NodeId anc : pl.RetainedAncestors(u)) d_sum[anc] -= delta;
      for (NodeId desc : pl.RetainedDescendants(u)) a_sum[desc] -= delta;
    };

    // Cancellation exit shared by both deadline checks below: classified
    // statuses are all ground truth, so the partial result is safe.
    auto truncated = [&] {
      return counters.Finish(internal::BuildTruncatedOutcomes(pl, status));
    };

    auto gain_of = [&](NodeId n) {
      const double p = level_pa.empty() ? options_.alive_probability
                                        : level_pa[pl.lattice().node(n).level];
      return static_cast<double>(w[n]) +
             (1.0 - p) * static_cast<double>(a_sum[n]) +
             p * static_cast<double>(d_sum[n]);
    };

    std::vector<NodeId> unknown = pl.retained();
    std::sort(unknown.begin(), unknown.end());
    while (!unknown.empty()) {
      // Compact out classified nodes and pick the highest gain; the first
      // (= lowest node id) wins ties, since `unknown` stays in ascending id
      // order and only a strictly greater gain replaces the pick.
      size_t keep = 0;
      NodeId n = kInvalidNode;
      double best_gain = 0;
      for (size_t i = 0; i < unknown.size(); ++i) {
        const NodeId u = unknown[i];
        if (status.IsKnown(u)) continue;
        unknown[keep++] = u;
        const double gain = gain_of(u);
        if (n == kInvalidNode || gain > best_gain) {
          n = u;
          best_gain = gain;
        }
      }
      unknown.resize(keep);
      if (unknown.empty()) break;

      if (evaluator->cancelled()) return truncated();
      StatusOr<bool> alive = evaluator->IsAlive(n);
      if (internal::IsDeadlineExceeded(alive.status())) return truncated();
      KWSDBG_RETURN_NOT_OK(alive.status());

      if (*alive) {
        // R1: n and its unknown descendants become alive.
        std::vector<NodeId> newly = {n};
        for (NodeId d : pl.RetainedDescendants(n)) {
          if (!status.IsKnown(d)) newly.push_back(d);
        }
        status.MarkAliveWithDescendants(n, pl);
        for (NodeId u : newly) on_classified(u);
      } else {
        // R2: n and its unknown ancestors become dead.
        std::vector<NodeId> newly = {n};
        for (NodeId anc : pl.RetainedAncestors(n)) {
          if (!status.IsKnown(anc)) newly.push_back(anc);
        }
        status.MarkDeadWithAncestors(n, pl);
        for (NodeId u : newly) on_classified(u);
      }
    }

    KWSDBG_ASSIGN_OR_RETURN(TraversalResult result,
                            internal::BuildOutcomes(pl, status));
    return counters.Finish(std::move(result));
  }

 private:
  SbhOptions options_;
};

}  // namespace

std::unique_ptr<TraversalStrategy> MakeScoreBased(SbhOptions options) {
  return std::make_unique<ScoreBasedStrategy>(options);
}

}  // namespace kwsdbg
