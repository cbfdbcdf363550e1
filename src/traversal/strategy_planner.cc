#include "traversal/strategy_planner.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "kws/pruned_lattice.h"
#include "text/inverted_index.h"
#include "traversal/strategies.h"

namespace kwsdbg {

std::string_view PlannerArmName(PlannerArm arm) {
  switch (arm) {
    case PlannerArm::kBottomUp:
      return "BU";
    case PlannerArm::kTopDown:
      return "TD";
    case PlannerArm::kBottomUpReuse:
      return "BUWR";
    case PlannerArm::kTopDownReuse:
      return "TDWR";
    case PlannerArm::kSbhFixed:
      return "SBH";
    case PlannerArm::kSbhAdaptive:
      return "SBH+pa";
  }
  return "?";
}

TraversalKind ArmTraversalKind(PlannerArm arm) {
  switch (arm) {
    case PlannerArm::kBottomUp:
      return TraversalKind::kBottomUp;
    case PlannerArm::kTopDown:
      return TraversalKind::kTopDown;
    case PlannerArm::kBottomUpReuse:
      return TraversalKind::kBottomUpWithReuse;
    case PlannerArm::kTopDownReuse:
      return TraversalKind::kTopDownWithReuse;
    case PlannerArm::kSbhFixed:
    case PlannerArm::kSbhAdaptive:
      return TraversalKind::kScoreBased;
  }
  return TraversalKind::kScoreBased;
}

const std::vector<PlannerArm>& AllPlannerArms() {
  static const std::vector<PlannerArm> kArms = {
      PlannerArm::kBottomUp,     PlannerArm::kTopDown,
      PlannerArm::kBottomUpReuse, PlannerArm::kTopDownReuse,
      PlannerArm::kSbhFixed,     PlannerArm::kSbhAdaptive,
  };
  return kArms;
}

PlannerFeatures ComputePlannerFeatures(const PrunedLattice& pl,
                                       const InvertedIndex* index) {
  PlannerFeatures f;
  f.retained_nodes = pl.retained().size();
  f.num_mtns = pl.mtns().size();
  f.max_level = pl.MaxRetainedLevel();
  f.base_nodes = pl.RetainedAtLevel(1).size();
  f.top_nodes = f.max_level > 0 ? pl.RetainedAtLevel(f.max_level).size() : 0;
  f.min_keyword_rows =
      MinBoundRowFrequency(pl.binding(), pl.lattice().schema(), index);
  f.sel_bucket = SelectivityBucketOf(f.min_keyword_rows);
  return f;
}

StrategyPlannerOptions StrategyPlannerOptions::FromEnv() {
  StrategyPlannerOptions options;
  if (const char* eps = std::getenv("KWSDBG_EXPLORE_EPS")) {
    options.explore_eps = std::clamp(std::strtod(eps, nullptr), 0.0, 1.0);
  }
  if (const char* seed = std::getenv("KWSDBG_ADAPTIVE_SEED")) {
    options.seed = std::strtoull(seed, nullptr, 10);
  }
  return options;
}

AdaptiveOptions AdaptiveOptions::FromEnv() {
  AdaptiveOptions options;
  options.planner = StrategyPlannerOptions::FromEnv();
  return options;
}

StrategyPlanner::StrategyPlanner(StrategyPlannerOptions options)
    : options_(options), rng_(options.seed) {}

uint64_t StrategyPlanner::FeatureBucket(const PlannerFeatures& features) {
  auto log2b = [](size_t v) -> uint64_t {
    return static_cast<uint64_t>(std::bit_width(v));  // 0 -> 0, 1 -> 1, ...
  };
  const uint64_t level = std::min<uint64_t>(features.max_level, 15);
  return level | (log2b(features.retained_nodes) & 0x3f) << 8 |
         (log2b(features.num_mtns) & 0x3f) << 16 |
         (static_cast<uint64_t>(features.sel_bucket) & 0x0f) << 24;
}

PlannerDecision StrategyPlanner::Decide(const PlannerFeatures& features) {
  std::lock_guard<std::mutex> lock(mu_);
  PlannerDecision decision;
  decision.feature_bucket = FeatureBucket(features);
  ++decisions_;
  BucketArms& arms = buckets_[decision.feature_bucket];

  if (!frozen_ && options_.explore_eps > 0 &&
      rng_.Bernoulli(options_.explore_eps)) {
    // Explore the least-run arm; break ties uniformly so repeated cold
    // decisions fan out over all arms instead of always retrying arm 0.
    double min_runs = arms[0].runs;
    for (const ArmStats& a : arms) min_runs = std::min(min_runs, a.runs);
    size_t ties = 0;
    for (const ArmStats& a : arms) ties += a.runs == min_runs ? 1 : 0;
    size_t pick = rng_.Uniform(ties);
    for (size_t i = 0; i < arms.size(); ++i) {
      if (arms[i].runs != min_runs) continue;
      if (pick-- == 0) {
        decision.arm = static_cast<PlannerArm>(i);
        break;
      }
    }
    decision.explored = true;
    ++explored_;
    return decision;
  }

  // Exploit: lowest mean SQL among observed arms, mean millis breaks ties.
  // A cold bucket has no observed arm — fall back to model-fed SBH, which
  // with a cold PaModel is exactly the paper's SBH @ 0.5.
  bool found = false;
  double best_sql = 0, best_millis = 0;
  for (size_t i = 0; i < arms.size(); ++i) {
    const ArmStats& a = arms[i];
    if (a.runs == 0) continue;
    const double mean_sql = a.sql / a.runs;
    const double mean_millis = a.millis / a.runs;
    if (!found || mean_sql < best_sql ||
        (mean_sql == best_sql && mean_millis < best_millis)) {
      found = true;
      best_sql = mean_sql;
      best_millis = mean_millis;
      decision.arm = static_cast<PlannerArm>(i);
    }
  }
  if (!found) decision.arm = PlannerArm::kSbhAdaptive;
  return decision;
}

void StrategyPlanner::ObserveKey(uint64_t bucket, PlannerArm arm,
                                 size_t sql_queries, double total_millis) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_) return;
  ArmStats& stats = buckets_[bucket][static_cast<size_t>(arm)];
  stats.runs += 1;
  stats.sql += static_cast<double>(sql_queries);
  stats.millis += total_millis;
}

void StrategyPlanner::Observe(const PlannerDecision& decision,
                              size_t sql_queries, double total_millis) {
  ObserveKey(decision.feature_bucket, decision.arm, sql_queries, total_millis);
}

void StrategyPlanner::ObserveArm(const PlannerFeatures& features,
                                 PlannerArm arm, size_t sql_queries,
                                 double total_millis) {
  ObserveKey(FeatureBucket(features), arm, sql_queries, total_millis);
}

void StrategyPlanner::SyncDataVersion(uint64_t version) {
  if (version == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_ || data_version_ == version) return;
  if (data_version_ != 0) {
    for (auto& [bucket, arms] : buckets_) {
      for (ArmStats& a : arms) {
        a.runs /= 2;
        a.sql /= 2;
        a.millis /= 2;
      }
    }
  }
  data_version_ = version;
}

size_t StrategyPlanner::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

size_t StrategyPlanner::explored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return explored_;
}

size_t StrategyPlanner::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_.size();
}

std::unique_ptr<TraversalStrategy> MakeArmStrategy(PlannerArm arm,
                                                   SbhOptions sbh,
                                                   const PaModel* pa_model) {
  switch (arm) {
    case PlannerArm::kBottomUp:
      return MakeBottomUp();
    case PlannerArm::kTopDown:
      return MakeTopDown();
    case PlannerArm::kBottomUpReuse:
      return MakeBottomUpWithReuse();
    case PlannerArm::kTopDownReuse:
      return MakeTopDownWithReuse();
    case PlannerArm::kSbhFixed:
      sbh.pa_model = nullptr;
      return MakeScoreBased(sbh);
    case PlannerArm::kSbhAdaptive:
      sbh.pa_model = pa_model;
      return MakeScoreBased(sbh);
  }
  return MakeScoreBased(sbh);
}

}  // namespace kwsdbg
