#include "debugger/non_answer_debugger.h"

#include "common/timer.h"
#include "debugger/ranking.h"
#include "kws/pruned_lattice.h"
#include "kws/query_builder.h"
#include "traversal/evaluator.h"

namespace kwsdbg {

NonAnswerDebugger::NonAnswerDebugger(const Database* db,
                                     const Lattice* lattice,
                                     const InvertedIndex* index,
                                     DebuggerOptions options)
    : db_(db),
      lattice_(lattice),
      index_(index),
      options_(options),
      binder_(&lattice->schema(), index,
              lattice->config().EffectiveKeywordCopies(),
              options.max_interpretations) {
  // The debugger owns the cancellation token so deadlines work without any
  // caller plumbing; wire its address into the SQL session and evaluator.
  options_.executor.cancellation = &cancel_;
  options_.eval.cancellation = &cancel_;
  executor_ = std::make_unique<Executor>(db, options_.executor);
  // The same inverted index that drives Phase 1 binding also serves the
  // executor's keyword candidates (posting lists instead of LIKE scans).
  executor_->RegisterTextIndex(index);
  if (options_.shared_verdict_cache != nullptr) {
    verdict_cache_ = options_.shared_verdict_cache;
  } else if (options_.verdict_cache_capacity > 0) {
    owned_verdict_cache_ =
        std::make_unique<VerdictCache>(options_.verdict_cache_capacity);
    verdict_cache_ = owned_verdict_cache_.get();
  }
  if (options_.adaptive) {
    if (options_.shared_pa_model != nullptr) {
      pa_model_ = options_.shared_pa_model;
    } else {
      owned_pa_model_ = std::make_unique<PaModel>();
      pa_model_ = owned_pa_model_.get();
    }
    // The evaluator feeds the model; SBH reads it.
    options_.eval.pa_model = pa_model_;
    options_.sbh.pa_model = pa_model_;
  }
}

StatusOr<DebugReport> NonAnswerDebugger::Debug(
    const std::string& keyword_query) {
  Timer debug_timer;
  // Fresh budget per query. Arm() is safe here: no other thread polls the
  // token between Debug() calls.
  cancel_.Arm(options_.deadline_millis);

  DebugReport report;
  report.keyword_query = keyword_query;

  BindingResult binding_result = [&] {
    // Phase 1 reads posting lists (and the selectivity profile) but no table
    // rows: the index gate alone fences it against a concurrent index patch.
    IndexReadGuard guard(options_.eval.fences);
    return binder_.Bind(keyword_query);
  }();
  report.keywords = binding_result.keywords;
  report.missing_keywords = binding_result.missing_keywords;
  report.bind_millis = binding_result.bind_millis;
  report.interpretations_skipped = binding_result.interpretations_skipped;
  if (!report.missing_keywords.empty()) {
    report.debug_millis = debug_timer.ElapsedMillis();
    return report;
  }

  const std::unique_ptr<TraversalStrategy> strategy =
      MakeStrategy(options_.strategy, options_.sbh);
  if (pa_model_ != nullptr) {
    // Live mutations bump the database/table epochs; fold them into one
    // data version so the model decays counts learned against old data.
    pa_model_->SyncDataVersion(DataVersionOf(*db_));
  }

  const NodeTextRenderer renderer(lattice_->schema(), *db_);
  for (const KeywordBinding& binding : binding_result.interpretations) {
    InterpretationReport interp;
    interp.binding = binding.ToString(lattice_->schema());
    auto node_report = [&](NodeId id) -> StatusOr<NodeReport> {
      const LatticeNode& node = lattice_->node(id);
      NodeReport out;
      out.node = id;
      out.level = node.level;
      KWSDBG_RETURN_NOT_OK(
          renderer.Render(node.tree, binding, &out.network, &out.sql));
      return out;
    };

    PrunedLattice pl =
        PrunedLattice::Build(*lattice_, binding, options_.node_filter);
    interp.prune_stats = pl.stats();
    // Adaptive mode reports the model slice this interpretation reads.
    auto pa_slice = [&] {
      return pa_model_ == nullptr
                 ? std::vector<PaBucketSnapshot>{}
                 : pa_model_->SnapshotFor(SelectivityBucketFor(pl, index_));
    };

    QueryEvaluator evaluator(db_, executor_.get(), &pl, index_,
                             options_.eval, verdict_cache_);
    StatusOr<TraversalResult> traversal_or = strategy->Run(pl, &evaluator);
    if (!traversal_or.ok() &&
        traversal_or.status().code() == StatusCode::kDeadlineExceeded) {
      // Belt over the strategies' own truncation handling: a deadline that
      // escapes as a status still degrades to an (empty) truncated
      // interpretation instead of failing the query.
      report.truncated = true;
      interp.truncated = true;
      interp.traversal_stats.pa_buckets = pa_slice();
      report.interpretations.push_back(std::move(interp));
      break;
    }
    KWSDBG_ASSIGN_OR_RETURN(TraversalResult traversal,
                            std::move(traversal_or));
    interp.traversal_stats = std::move(traversal.stats);
    interp.traversal_stats.pa_buckets = pa_slice();
    interp.truncated = traversal.truncated;
    if (traversal.truncated) report.truncated = true;

    for (const MtnOutcome& outcome : traversal.outcomes) {
      if (outcome.alive) {
        AnswerReport ans;
        KWSDBG_ASSIGN_OR_RETURN(ans.query, node_report(outcome.mtn));
        // Sampling issues fresh SQL; skip it once the budget fired (the
        // probe would immediately unwind with kDeadlineExceeded anyway).
        if (options_.sample_rows > 0 && !traversal.truncated) {
          KWSDBG_ASSIGN_OR_RETURN(
              JoinNetworkQuery query,
              BuildNodeQuery(*lattice_, outcome.mtn, binding));
          // Sampling materializes rows from arbitrary bound tables; fence
          // them all (coarse but rare — sample_rows defaults to 0).
          RelationReadGuard guard(options_.eval.fences,
                                  RelationReadGuard::kAllRelations);
          KWSDBG_ASSIGN_OR_RETURN(
              ans.sample, executor_->Execute(query, options_.sample_rows));
        }
        interp.answers.push_back(std::move(ans));
      } else {
        NonAnswerReport na;
        KWSDBG_ASSIGN_OR_RETURN(na.query, node_report(outcome.mtn));
        for (NodeId mpan : outcome.mpans) {
          KWSDBG_ASSIGN_OR_RETURN(NodeReport mr, node_report(mpan));
          na.mpans.push_back(std::move(mr));
        }
        for (NodeId culprit : outcome.culprits) {
          KWSDBG_ASSIGN_OR_RETURN(NodeReport cr, node_report(culprit));
          na.culprits.push_back(std::move(cr));
        }
        interp.non_answers.push_back(std::move(na));
      }
    }
    if (options_.rank_answers) RankAnswers(&interp.answers);
    report.interpretations.push_back(std::move(interp));
    // Once the budget fires, further interpretations would truncate to
    // nothing immediately — drop them instead of spinning.
    if (report.truncated) break;
  }
  report.debug_millis = debug_timer.ElapsedMillis();
  return report;
}

}  // namespace kwsdbg
