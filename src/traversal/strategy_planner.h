// Per-query traversal-strategy selection (ROADMAP item 2, paper Sec. 2.5's
// open question of which traversal order to run): an epsilon-greedy bandit
// over the five static strategies plus model-fed SBH, keyed by a bucket of
// features that are all available before traversal starts — lattice shape
// from PrunedLattice, keyword selectivity from InvertedIndex. Costs are
// observed per (bucket, arm) as (SQL queries, wall millis); exploitation
// picks the arm with the lowest mean SQL (millis breaks ties), exploration
// keeps an epsilon floor of least-tried arms so the model keeps learning
// under drift. A cold bucket falls back to model-fed SBH, which with a cold
// PaModel is exactly the paper's SBH @ 0.5 — cold-start never changes
// behaviour, only warm evidence does.
#ifndef KWSDBG_TRAVERSAL_STRATEGY_PLANNER_H_
#define KWSDBG_TRAVERSAL_STRATEGY_PLANNER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "traversal/pa_model.h"
#include "traversal/strategy.h"

namespace kwsdbg {

/// The planner's arms: the five paper strategies, with SBH split into the
/// fixed-p_a variant and the PaModel-fed variant.
enum class PlannerArm : uint8_t {
  kBottomUp = 0,
  kTopDown,
  kBottomUpReuse,
  kTopDownReuse,
  kSbhFixed,
  kSbhAdaptive,
};
inline constexpr size_t kNumPlannerArms = 6;

/// Arm label for reports ("BU", "TDWR", "SBH", "SBH+pa", ...).
std::string_view PlannerArmName(PlannerArm arm);

/// The TraversalKind an arm runs (both SBH arms map to kScoreBased).
TraversalKind ArmTraversalKind(PlannerArm arm);

/// All arms, in enum order.
const std::vector<PlannerArm>& AllPlannerArms();

/// Pre-traversal features of one interpretation.
struct PlannerFeatures {
  size_t retained_nodes = 0;  ///< Pruned search-space size.
  size_t num_mtns = 0;
  size_t max_level = 0;       ///< Deepest retained level.
  size_t base_nodes = 0;      ///< Retained width at level 1.
  size_t top_nodes = 0;       ///< Retained width at the deepest level.
  size_t min_keyword_rows = 0;  ///< Rarest bound keyword's row frequency.
  size_t sel_bucket = 0;        ///< SelectivityBucketOf(min_keyword_rows).
};

PlannerFeatures ComputePlannerFeatures(const PrunedLattice& pl,
                                       const InvertedIndex* index);

/// What Decide() picked, echoed back to Observe() so the cost lands in the
/// same feature bucket the decision was made from.
struct PlannerDecision {
  PlannerArm arm = PlannerArm::kSbhAdaptive;
  bool explored = false;
  uint64_t feature_bucket = 0;
};

struct StrategyPlannerOptions {
  /// Exploration floor: probability a decision tries the least-run arm
  /// instead of exploiting. 0 disables exploration.
  double explore_eps = 0.05;
  uint64_t seed = 0xada9717eull;
  /// Reads KWSDBG_EXPLORE_EPS / KWSDBG_ADAPTIVE_SEED over the defaults, so
  /// bench regressions reproduce from the printed values.
  static StrategyPlannerOptions FromEnv();
};

/// Thread-safe epsilon-greedy planner. One mutex guards the bucket table and
/// the RNG — decisions are rare (one per interpretation) next to verdicts.
class StrategyPlanner {
 public:
  explicit StrategyPlanner(StrategyPlannerOptions options = {});

  PlannerDecision Decide(const PlannerFeatures& features);

  /// Records the measured cost of running the decided arm. Skipped for
  /// truncated runs — a deadline-clipped cost would look artificially cheap.
  void Observe(const PlannerDecision& decision, size_t sql_queries,
               double total_millis);

  /// Records a cost for an arm the planner did not itself pick (benches use
  /// this to pre-train every arm on a workload).
  void ObserveArm(const PlannerFeatures& features, PlannerArm arm,
                  size_t sql_queries, double total_millis);

  /// Mirrors PaModel::SyncDataVersion: on a data-version change, halves all
  /// per-bucket run counts so pre-drift costs decay.
  void SyncDataVersion(uint64_t version);

  /// Stops exploration, observation, and decay (Decide still exploits).
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  size_t decisions() const;
  size_t explored() const;
  size_t buckets() const;
  const StrategyPlannerOptions& options() const { return options_; }

  /// Feature-bucket key: quantized (max level, log2 retained nodes,
  /// log2 MTNs, selectivity bucket).
  static uint64_t FeatureBucket(const PlannerFeatures& features);

 private:
  struct ArmStats {
    double runs = 0;
    double sql = 0;
    double millis = 0;
  };
  using BucketArms = std::array<ArmStats, kNumPlannerArms>;

  void ObserveKey(uint64_t bucket, PlannerArm arm, size_t sql_queries,
                  double total_millis);

  StrategyPlannerOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, BucketArms> buckets_;
  Rng rng_;
  uint64_t data_version_ = 0;
  bool frozen_ = false;
  size_t decisions_ = 0;
  size_t explored_ = 0;
};

/// Bundled adaptive tier: one PaModel plus one StrategyPlanner, shared the
/// way a DebugService's workers share its verdict cache and flat-index tier.
struct AdaptiveOptions {
  PaModelOptions pa;
  StrategyPlannerOptions planner;
  static AdaptiveOptions FromEnv();
};

class AdaptiveState {
 public:
  explicit AdaptiveState(AdaptiveOptions options = {})
      : pa_(options.pa), planner_(options.planner) {}

  PaModel& pa() { return pa_; }
  const PaModel& pa() const { return pa_; }
  StrategyPlanner& planner() { return planner_; }
  const StrategyPlanner& planner() const { return planner_; }

  void SyncDataVersion(uint64_t version) {
    pa_.SyncDataVersion(version);
    planner_.SyncDataVersion(version);
  }
  void Freeze() {
    pa_.Freeze();
    planner_.Freeze();
  }

 private:
  PaModel pa_;
  StrategyPlanner planner_;
};

/// Builds the strategy an arm denotes. `pa_model` is wired into SBH for the
/// kSbhAdaptive arm; the other arms ignore it.
std::unique_ptr<TraversalStrategy> MakeArmStrategy(PlannerArm arm,
                                                   SbhOptions sbh,
                                                   const PaModel* pa_model);

}  // namespace kwsdbg

#endif  // KWSDBG_TRAVERSAL_STRATEGY_PLANNER_H_
