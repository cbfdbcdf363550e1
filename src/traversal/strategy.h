// Phase 3 lattice traversal strategies (paper Sec. 2.5): classify every MTN
// as answer (alive) or non-answer (dead) and report the MPANs — maximal
// partially alive nodes — of each dead MTN.
#ifndef KWSDBG_TRAVERSAL_STRATEGY_H_
#define KWSDBG_TRAVERSAL_STRATEGY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/counter_table.h"
#include "common/timer.h"
#include "traversal/evaluator.h"
#include "traversal/node_status.h"
#include "traversal/pa_model.h"

namespace kwsdbg {

/// Outcome for one MTN.
struct MtnOutcome {
  NodeId mtn = kInvalidNode;
  bool alive = false;
  std::vector<NodeId> mpans;     ///< Maximal alive sub-networks; sorted;
                                 ///< empty when alive.
  std::vector<NodeId> culprits;  ///< Minimal dead sub-networks — the
                                 ///< smallest joins that already return
                                 ///< nothing (every proper sub-network of a
                                 ///< culprit is alive); sorted; empty when
                                 ///< alive. The dual frontier of the MPANs.
  /// False only in truncated runs, for a dead MTN whose sub-lattice was not
  /// fully classified when the deadline fired: the aliveness verdict is
  /// still ground truth, but mpans/culprits are left empty because a
  /// partially classified frontier could report wrong maximality.
  bool frontier_complete = true;
};

/// Work counters for one strategy run: the rows of KWSDBG_TRAVERSAL_COUNTERS
/// (common/counter_table.h), plus the adaptive debugger's model slice.
struct TraversalStats {
  KWSDBG_TRAVERSAL_COUNTERS(KWSDBG_COUNTER_FIELD)
  std::vector<PaBucketSnapshot> pa_buckets;  ///< Post-run model slice for the
                                             ///< query's selectivity bucket.
};

/// Result of one strategy run over one interpretation.
struct TraversalResult {
  std::vector<MtnOutcome> outcomes;  ///< In PrunedLattice::mtns() order.
                                     ///< Truncated runs omit MTNs whose
                                     ///< status was still unknown.
  TraversalStats stats;
  /// Set when a cooperative deadline fired mid-run: `outcomes` then covers
  /// only the MTNs classified before cancellation (every reported verdict
  /// is still ground truth — truncation never fabricates one).
  bool truncated = false;
};

/// The five strategies of Sec. 2.5 (+ Table 4 / Figs. 11-12 labels).
enum class TraversalKind {
  kBottomUp,            // BU
  kTopDown,             // TD
  kBottomUpWithReuse,   // BUWR (Algorithm 3)
  kTopDownWithReuse,    // TDWR
  kScoreBased,          // SBH (Sec. 2.5.3)
};

/// Short paper label ("BU", "TDWR", ...).
std::string_view TraversalKindName(TraversalKind kind);

/// All five kinds, in the paper's reporting order.
const std::vector<TraversalKind>& AllTraversalKinds();

/// Strategy interface. Implementations are stateless across runs.
class TraversalStrategy {
 public:
  virtual ~TraversalStrategy() = default;
  virtual std::string_view name() const = 0;

  /// Classifies all MTNs of `pl` and finds MPANs for the dead ones.
  virtual StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                        QueryEvaluator* evaluator) = 0;
};

/// SBH parameters (paper uses p_a = 0.5).
struct SbhOptions {
  double alive_probability = 0.5;
  /// Online p_a model (see traversal/pa_model.h). When set, SBH reads a
  /// per-level estimate for the query's selectivity bucket — snapshotted at
  /// run start, so the schedule is deterministic given the model state —
  /// instead of `alive_probability`. A cold model yields the 0.5 prior
  /// everywhere, reproducing static SBH @ 0.5 bit for bit.
  const PaModel* pa_model = nullptr;
};

/// Factory.
std::unique_ptr<TraversalStrategy> MakeStrategy(TraversalKind kind,
                                                SbhOptions sbh = {});

/// Fills `mpans` and `culprits` with the frontier of dead MTN `m` that
/// `status` already determines, as ascending node ids: the MPANs are the
/// alive nodes in Desc(m) whose every parent inside Desc+(m) is dead, and
/// the culprits — the smallest joins that already return nothing — the dead
/// nodes in Desc+(m) whose every retained child is alive. Once the
/// sub-lattice is classified this is the whole frontier.
void ExtractFrontier(const PrunedLattice& pl, const NodeStatusMap& status,
                     LocalId m, std::vector<NodeId>* mpans,
                     std::vector<NodeId>* culprits);

namespace internal {

/// Per-run accounting shared by every strategy: snapshots the evaluator's
/// SQL, cache and p_a-observation counters, its executor's counters and the
/// verdict cache's eviction count at construction (run start); Finish()
/// stamps the deltas since then, plus the elapsed wall time, into a
/// result's stats.
class RunCounters {
 public:
  explicit RunCounters(const QueryEvaluator& evaluator);

  /// Fills `result.stats` and returns `result`, so every exit path of a run
  /// — complete or truncated — reads `return counters.Finish(...)`.
  TraversalResult Finish(TraversalResult result) const;

 private:
  const QueryEvaluator& evaluator_;
  Timer total_;
  size_t sql_before_;
  double sql_millis_before_;
  size_t hits_before_;
  size_t misses_before_;
  size_t pa_observations_before_;
  size_t evictions_before_ = 0;
  ExecutorStats exec_before_;
};

/// BU, TD, BUWR and TDWR: one level sweep (traversal/level_sweep.cc).
std::unique_ptr<TraversalStrategy> MakeLevelSweep(TraversalKind kind);

/// SBH (traversal/score_based.cc).
std::unique_ptr<TraversalStrategy> MakeScoreBased(SbhOptions options);

/// Builds per-MTN outcomes from a fully classified global status map (via
/// AppendOutcomeIfKnown); an MTN left unclassified is an Internal error.
StatusOr<TraversalResult> BuildOutcomes(const PrunedLattice& pl,
                                        const NodeStatusMap& status);

/// True for the status a fired cancellation token propagates; the
/// strategies translate it into a truncated partial result instead of an
/// error.
bool IsDeadlineExceeded(const Status& status);

/// Appends the outcome for MTN `m` (a local id) to `result` if `status`
/// classifies it (no-op otherwise). For a dead MTN, MPANs/culprits are
/// extracted only when the MTN's whole retained sub-lattice is classified —
/// a partial frontier could be wrong, so it is omitted and
/// `frontier_complete` cleared instead.
void AppendOutcomeIfKnown(const PrunedLattice& pl, const NodeStatusMap& status,
                          LocalId m, TraversalResult* result);

/// Builds a truncated result from a partially classified global status map:
/// outcomes for every classified MTN (via AppendOutcomeIfKnown), with
/// `truncated` set.
TraversalResult BuildTruncatedOutcomes(const PrunedLattice& pl,
                                       const NodeStatusMap& status);

}  // namespace internal

}  // namespace kwsdbg

#endif  // KWSDBG_TRAVERSAL_STRATEGY_H_
