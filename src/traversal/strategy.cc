#include "traversal/strategy.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "traversal/strategies.h"

namespace kwsdbg {

std::unique_ptr<TraversalStrategy> MakeStrategy(TraversalKind kind,
                                                SbhOptions sbh) {
  switch (kind) {
    case TraversalKind::kBottomUp:
      return MakeBottomUp();
    case TraversalKind::kTopDown:
      return MakeTopDown();
    case TraversalKind::kBottomUpWithReuse:
      return MakeBottomUpWithReuse();
    case TraversalKind::kTopDownWithReuse:
      return MakeTopDownWithReuse();
    case TraversalKind::kScoreBased:
      return MakeScoreBased(sbh);
  }
  return nullptr;
}

std::string_view TraversalKindName(TraversalKind kind) {
  switch (kind) {
    case TraversalKind::kBottomUp:
      return "BU";
    case TraversalKind::kTopDown:
      return "TD";
    case TraversalKind::kBottomUpWithReuse:
      return "BUWR";
    case TraversalKind::kTopDownWithReuse:
      return "TDWR";
    case TraversalKind::kScoreBased:
      return "SBH";
  }
  return "?";
}

const std::vector<TraversalKind>& AllTraversalKinds() {
  static const std::vector<TraversalKind> kAll = {
      TraversalKind::kBottomUp, TraversalKind::kBottomUpWithReuse,
      TraversalKind::kTopDown, TraversalKind::kTopDownWithReuse,
      TraversalKind::kScoreBased};
  return kAll;
}

namespace internal {

RunCounters::RunCounters(const QueryEvaluator& evaluator)
    : evaluator_(evaluator),
      sql_before_(evaluator.sql_executed()),
      sql_millis_before_(evaluator.sql_millis()),
      hits_before_(evaluator.cache_hits()),
      misses_before_(evaluator.cache_misses()),
      pa_observations_before_(evaluator.pa_observations()),
      exec_before_(evaluator.executor()->stats()) {
  if (evaluator.cache() != nullptr) {
    evictions_before_ = evaluator.cache()->stats().evictions;
  }
}

TraversalResult RunCounters::Finish(TraversalResult result) const {
  TraversalStats& stats = result.stats;
  stats.sql_queries = evaluator_.sql_executed() - sql_before_;
  stats.sql_millis = evaluator_.sql_millis() - sql_millis_before_;
  stats.cache_hits = evaluator_.cache_hits() - hits_before_;
  stats.cache_misses = evaluator_.cache_misses() - misses_before_;
  stats.pa_observations =
      evaluator_.pa_observations() - pa_observations_before_;
  if (evaluator_.cache() != nullptr) {
    stats.cache_evictions =
        evaluator_.cache()->stats().evictions - evictions_before_;
  }
  const ExecutorStats& now = evaluator_.executor()->stats();
#define KWSDBG_EXECUTOR_DELTA(name, kind, doc) \
  stats.name = now.name - exec_before_.name;
  KWSDBG_EXECUTOR_COUNTERS(KWSDBG_EXECUTOR_DELTA)
#undef KWSDBG_EXECUTOR_DELTA
  stats.total_millis = total_.ElapsedMillis();
  return result;
}

std::vector<NodeId> ExtractMpans(const PrunedLattice& pl,
                                 const NodeStatusMap& status, NodeId m) {
  KWSDBG_DCHECK(status.IsDead(m));
  const std::vector<NodeId>& desc = pl.RetainedDescendants(m);
  std::unordered_set<NodeId> in_sub(desc.begin(), desc.end());
  in_sub.insert(m);
  std::vector<NodeId> mpans;
  for (NodeId n : desc) {
    if (!status.IsAlive(n)) continue;
    bool maximal = true;
    for (NodeId p : pl.lattice().node(n).parents) {
      if (in_sub.count(p) && status.IsAlive(p)) {
        maximal = false;
        break;
      }
    }
    if (maximal) mpans.push_back(n);
  }
  std::sort(mpans.begin(), mpans.end());
  return mpans;
}

std::vector<NodeId> ExtractMinimalDead(const PrunedLattice& pl,
                                       const NodeStatusMap& status,
                                       NodeId m) {
  KWSDBG_DCHECK(status.IsDead(m));
  std::vector<NodeId> out;
  std::vector<NodeId> sub = pl.RetainedDescendants(m);
  sub.push_back(m);
  for (NodeId n : sub) {
    if (!status.IsDead(n)) continue;
    bool minimal = true;
    for (NodeId c : pl.RetainedChildren(n)) {
      if (!status.IsAlive(c)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(n);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool IsDeadlineExceeded(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded;
}

void AppendOutcomeIfKnown(const PrunedLattice& pl, const NodeStatusMap& status,
                          NodeId m, TraversalResult* result) {
  if (!status.IsKnown(m)) return;
  MtnOutcome outcome;
  outcome.mtn = m;
  outcome.alive = status.IsAlive(m);
  if (!outcome.alive) {
    bool complete = true;
    for (NodeId d : pl.RetainedDescendants(m)) {
      if (!status.IsKnown(d)) {
        complete = false;
        break;
      }
    }
    if (complete) {
      outcome.mpans = ExtractMpans(pl, status, m);
      outcome.culprits = ExtractMinimalDead(pl, status, m);
    } else {
      outcome.frontier_complete = false;
    }
  }
  result->outcomes.push_back(std::move(outcome));
}

TraversalResult BuildTruncatedOutcomes(const PrunedLattice& pl,
                                       const NodeStatusMap& status) {
  TraversalResult result;
  result.truncated = true;
  for (NodeId m : pl.mtns()) AppendOutcomeIfKnown(pl, status, m, &result);
  return result;
}

StatusOr<TraversalResult> BuildOutcomes(const PrunedLattice& pl,
                                        const NodeStatusMap& status) {
  TraversalResult result;
  for (NodeId m : pl.mtns()) {
    if (!status.IsKnown(m)) {
      return Status::Internal("MTN " + std::to_string(m) +
                              " left unclassified by traversal");
    }
    AppendOutcomeIfKnown(pl, status, m, &result);
  }
  return result;
}

}  // namespace internal
}  // namespace kwsdbg
