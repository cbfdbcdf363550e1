#include "replay.h"

#include "debugger/ranking.h"
#include "kws/pruned_lattice.h"
#include "kws/query_builder.h"
#include "traversal/evaluator.h"

namespace kwsdbg::perfbench {

namespace {

StatusOr<NodeReport> MakeNodeReport(const Lattice& lattice, NodeId id,
                                    const KeywordBinding& binding,
                                    const Database& db) {
  NodeReport report;
  report.node = id;
  report.level = lattice.node(id).level;
  report.network = lattice.node(id).tree.ToString(lattice.schema());
  KWSDBG_ASSIGN_OR_RETURN(JoinNetworkQuery query,
                          BuildNodeQuery(lattice, id, binding));
  KWSDBG_ASSIGN_OR_RETURN(report.sql, query.ToSql(db));
  return report;
}

}  // namespace

Replayer::Replayer(const Database* db, const Lattice* lattice,
                   const InvertedIndex* index, Executor* executor,
                   VerdictCache* cache, const DebuggerOptions& options)
    : db_(db),
      lattice_(lattice),
      index_(index),
      executor_(executor),
      cache_(cache),
      options_(options),
      binder_(&lattice->schema(), index,
              lattice->config().EffectiveKeywordCopies(),
              options.max_interpretations) {}

StatusOr<DebugReport> Replayer::Run(const std::string& query,
                                    const StrategyFactory& make,
                                    Tracer* tracer, uint32_t request) {
  const int64_t start_ns = NowNs();
  ScopedSpan request_span(tracer, kRequestSpan, request);
  DebugReport report;
  report.keyword_query = query;

  const BindingResult binding_result = [&] {
    ScopedSpan span(tracer, kBindSpan, request);
    return binder_.Bind(query);
  }();
  report.keywords = binding_result.keywords;
  report.missing_keywords = binding_result.missing_keywords;
  report.bind_millis = binding_result.bind_millis;
  report.interpretations_skipped = binding_result.interpretations_skipped;
  if (report.missing_keywords.empty()) {
    std::unique_ptr<TraversalStrategy> strategy = make();
    for (const KeywordBinding& binding : binding_result.interpretations) {
      InterpretationReport interp;
      interp.binding = binding.ToString(lattice_->schema());
      const PrunedLattice pl = [&] {
        ScopedSpan span(tracer, kPruneSpan, request);
        return PrunedLattice::Build(*lattice_, binding, options_.node_filter);
      }();
      interp.prune_stats = pl.stats();

      StatusOr<TraversalResult> traversal_or = [&] {
        ScopedSpan span(tracer, kTraversalSpan, request);
        QueryEvaluator evaluator(db_, executor_, &pl, index_, options_.eval,
                                 cache_);
        const double exec_before = executor_->stats().exec_millis;
        StatusOr<TraversalResult> result = strategy->Run(pl, &evaluator);
        span.SetInner(kSqlLayer,
                      static_cast<int64_t>(
                          (executor_->stats().exec_millis - exec_before) * 1e6));
        return result;
      }();
      KWSDBG_ASSIGN_OR_RETURN(TraversalResult traversal,
                              std::move(traversal_or));
      interp.traversal_stats = traversal.stats;
      interp.truncated = traversal.truncated;
      if (traversal.truncated) report.truncated = true;

      ScopedSpan span(tracer, kReportSpan, request);
      for (const MtnOutcome& outcome : traversal.outcomes) {
        if (outcome.alive) {
          AnswerReport ans;
          KWSDBG_ASSIGN_OR_RETURN(
              ans.query, MakeNodeReport(*lattice_, outcome.mtn, binding, *db_));
          interp.answers.push_back(std::move(ans));
          continue;
        }
        NonAnswerReport na;
        KWSDBG_ASSIGN_OR_RETURN(
            na.query, MakeNodeReport(*lattice_, outcome.mtn, binding, *db_));
        for (NodeId mpan : outcome.mpans) {
          KWSDBG_ASSIGN_OR_RETURN(
              NodeReport mr, MakeNodeReport(*lattice_, mpan, binding, *db_));
          na.mpans.push_back(std::move(mr));
        }
        for (NodeId culprit : outcome.culprits) {
          KWSDBG_ASSIGN_OR_RETURN(
              NodeReport cr, MakeNodeReport(*lattice_, culprit, binding, *db_));
          na.culprits.push_back(std::move(cr));
        }
        interp.non_answers.push_back(std::move(na));
      }
      if (options_.rank_answers) RankAnswers(&interp.answers);
      report.interpretations.push_back(std::move(interp));
      if (report.truncated) break;
    }
  }
  report.debug_millis = static_cast<double>(NowNs() - start_ns) / 1e6;
  return report;
}

}  // namespace kwsdbg::perfbench
