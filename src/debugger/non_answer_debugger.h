// The end-to-end system of Fig. 3: offline lattice in, keyword query in,
// answers + non-answers + maximal alive sub-queries out.
#ifndef KWSDBG_DEBUGGER_NON_ANSWER_DEBUGGER_H_
#define KWSDBG_DEBUGGER_NON_ANSWER_DEBUGGER_H_

#include <memory>
#include <string>

#include "common/cancellation.h"
#include "debugger/debug_report.h"
#include "graph/schema_graph.h"
#include "kws/keyword_binding.h"
#include "kws/pruned_lattice.h"
#include "lattice/lattice.h"
#include "sql/executor.h"
#include "text/inverted_index.h"
#include "traversal/pa_model.h"
#include "traversal/strategy.h"
#include "traversal/verdict_cache.h"

namespace kwsdbg {

/// Debugger configuration.
struct DebuggerOptions {
  TraversalKind strategy = TraversalKind::kScoreBased;
  SbhOptions sbh;
  EvalOptions eval;
  /// Session verdict cache capacity (entries); 0 disables caching. The cache
  /// persists across Debug() calls, so repeated keyword queries skip the SQL
  /// for every recurring (sub-)network until the database epoch changes.
  size_t verdict_cache_capacity = VerdictCache::kDefaultCapacity;
  /// Process-wide shared verdict tier. When set, the debugger consults this
  /// cache (thread-safe, shared with other sessions — the DebugService
  /// plugs every worker into one) instead of owning a session cache;
  /// `verdict_cache_capacity` is then ignored. Must outlive the debugger.
  VerdictCache* shared_verdict_cache = nullptr;
  /// Per-query wall-clock budget in milliseconds (0 = unbounded). When the
  /// budget fires mid-query, Debug() returns a partial report with
  /// `truncated` set — classified verdicts only, never fabricated ones.
  double deadline_millis = 0;
  /// SQL-session knobs: posting-list candidate sourcing (on by default;
  /// benches turn it off to measure the executor-v1 LIKE-scan path).
  ExecutorOptions executor;
  /// Sample result tuples fetched per answer query (0 = skip sampling;
  /// sampling issues extra SQL that is *not* counted in traversal stats).
  size_t sample_rows = 0;
  size_t max_interpretations = 256;
  /// Optional user constraint pushed into the Phase 3 search space
  /// (paper Sec. 5); see kws/pruned_lattice.h.
  NodeFilter node_filter;
  /// Sort each interpretation's answers smallest-join-network first
  /// (DISCOVER-style size ranking). Non-answers are never ranked or
  /// truncated — debugging needs all of them (paper Sec. 1).
  bool rank_answers = true;
  /// Adaptive traversal: attaches an online-learned PaModel
  /// (traversal/pa_model.h). The evaluator feeds it this debugger's fresh
  /// verdicts and SBH reads its per-level p_a instead of `sbh`'s fixed one;
  /// `strategy` still picks the traversal. A cold model yields SBH @ 0.5 —
  /// the model only reorders evaluations, verdicts stay ground truth.
  bool adaptive = false;
  /// Shared p_a model for adaptive mode. When set, the debugger feeds and
  /// reads this model (thread-safe — the DebugService plugs every worker
  /// into one, like the shared verdict cache) instead of owning one.
  /// Ignored unless `adaptive` is set. Must outlive the debugger.
  PaModel* shared_pa_model = nullptr;
};

/// Facade wiring Phases 1-3 together over a prebuilt lattice and index.
/// All referenced objects must outlive the debugger.
class NonAnswerDebugger {
 public:
  NonAnswerDebugger(const Database* db, const Lattice* lattice,
                    const InvertedIndex* index, DebuggerOptions options = {});

  /// Runs the full pipeline for `keyword_query`, one interpretation at a
  /// time, and assembles the report. With a deadline configured, a query
  /// that runs out of budget returns a partial report marked `truncated`
  /// (remaining interpretations are dropped, classified ones kept).
  StatusOr<DebugReport> Debug(const std::string& keyword_query);

  /// The SQL session used for aliveness checks (exposed so benches can reset
  /// or inspect caches between runs).
  Executor* executor() { return executor_.get(); }

  /// The verdict cache in effect — the shared tier if one was configured,
  /// else the owned session cache, or nullptr when disabled. Exposed so
  /// benches and tests can inspect hit rates or Clear() between passes.
  VerdictCache* verdict_cache() { return verdict_cache_; }

  /// The p_a model in effect — the shared model if one was configured, else
  /// the owned session model, or nullptr when adaptive mode is off.
  PaModel* pa_model() { return pa_model_; }

  /// Overrides the per-query deadline for subsequent Debug() calls (the
  /// DebugService sets this per request).
  void set_deadline_millis(double millis) { options_.deadline_millis = millis; }

  /// Fires the current query's cancellation token (thread-safe): the next
  /// cooperative checkpoint unwinds and Debug() returns truncated.
  void RequestCancel() { cancel_.RequestCancel(); }

  const DebuggerOptions& options() const { return options_; }

 private:
  const Database* db_;
  const Lattice* lattice_;
  const InvertedIndex* index_;
  DebuggerOptions options_;
  /// Per-query token; owned here so its address can be wired into the
  /// executor and evaluator options at construction. Re-armed per Debug().
  CancellationToken cancel_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<VerdictCache> owned_verdict_cache_;
  VerdictCache* verdict_cache_ = nullptr;  ///< Effective tier (shared/owned).
  std::unique_ptr<PaModel> owned_pa_model_;
  PaModel* pa_model_ = nullptr;  ///< Effective p_a model (shared/owned).
  KeywordBinder binder_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_DEBUGGER_NON_ANSWER_DEBUGGER_H_
