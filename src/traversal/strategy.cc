#include "traversal/strategy.h"

#include <algorithm>

#include "common/logging.h"

namespace kwsdbg {

std::unique_ptr<TraversalStrategy> MakeStrategy(TraversalKind kind,
                                                SbhOptions sbh) {
  if (kind == TraversalKind::kScoreBased) return internal::MakeScoreBased(sbh);
  return internal::MakeLevelSweep(kind);
}

void ExtractFrontier(const PrunedLattice& pl, const NodeStatusMap& status,
                     LocalId m, std::vector<NodeId>* mpans,
                     std::vector<NodeId>* culprits) {
  std::vector<uint64_t> sub(pl.DescendantRow(m).begin(),
                            pl.DescendantRow(m).end());
  RowAdd(sub, m);
  // Children of a node of Desc+(m) not known dead: each has a parent inside
  // Desc+(m) that is not dead, so none of them is maximal.
  std::vector<uint64_t> covered(sub.size(), 0);
  ForEachInRow(sub, [&](LocalId p) {
    if (status.IsDead(p)) return;
    for (LocalId c : pl.Children(p)) RowAdd(covered, c);
  });
  ForEachInRow(sub, [&](LocalId n) {
    if (n != m && status.IsAlive(n)) {
      if (!RowHas(covered, n)) mpans->push_back(pl.retained()[n]);
    } else if (status.IsDead(n)) {
      if (std::ranges::all_of(pl.Children(n),
                              [&](LocalId c) { return status.IsAlive(c); })) {
        culprits->push_back(pl.retained()[n]);
      }
    }
  });
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

bool IsDeadlineExceeded(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded;
}

void AppendOutcomeIfKnown(const PrunedLattice& pl, const NodeStatusMap& status,
                          LocalId m, TraversalResult* result) {
  if (!status.IsKnown(m)) return;
  MtnOutcome outcome;
  outcome.mtn = pl.retained()[m];
  outcome.alive = status.IsAlive(m);
  if (!outcome.alive) {
    if (status.AllKnown(pl.DescendantRow(m))) {
      ExtractFrontier(pl, status, m, &outcome.mpans, &outcome.culprits);
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
  for (LocalId m : pl.mtn_locals()) {
    AppendOutcomeIfKnown(pl, status, m, &result);
  }
  return result;
}

StatusOr<TraversalResult> BuildOutcomes(const PrunedLattice& pl,
                                        const NodeStatusMap& status) {
  TraversalResult result;
  for (LocalId m : pl.mtn_locals()) {
    if (!status.IsKnown(m)) {
      return Status::Internal("MTN " + std::to_string(pl.retained()[m]) +
                              " left unclassified by traversal");
    }
    AppendOutcomeIfKnown(pl, status, m, &result);
  }
  return result;
}

}  // namespace internal
}  // namespace kwsdbg
