// Node aliveness evaluation: executes the node's instantiated SQL query with
// first-row early exit (as a JoinPlan built straight from the node's join
// tree — see NodePlanBuilder), with the paper's base-level shortcuts (bound
// single-table nodes are known alive from the inverted index — Alg. 3
// GetBaseNodes; free single-table nodes from the catalog), and an optional
// session-level verdict cache consulted before any SQL is issued.
#ifndef KWSDBG_TRAVERSAL_EVALUATOR_H_
#define KWSDBG_TRAVERSAL_EVALUATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "kws/pruned_lattice.h"
#include "kws/query_builder.h"
#include "sql/executor.h"
#include "storage/relation_fences.h"
#include "text/inverted_index.h"
#include "traversal/verdict_cache.h"

namespace kwsdbg {

class PaModel;

/// Evaluation knobs.
struct EvalOptions {
  /// Resolve level-1 nodes from the inverted index / catalog without SQL.
  bool base_nodes_via_index = true;
  /// Cooperative per-query deadline, shared with the executor. IsAlive
  /// polls it before issuing SQL and returns kDeadlineExceeded once it
  /// fires — never a fabricated verdict.
  const CancellationToken* cancellation = nullptr;
  /// Relation fences shared with LiveMutator (see
  /// storage/relation_fences.h). When set, IsAlive holds the fences of the
  /// node's bound relations (plus the index gate) shared for the whole
  /// evaluation, so a concurrent ApplyMutation cannot change the rows or
  /// indexes it reads mid-verdict. Null = single-writer deployment, no
  /// locking.
  RelationFences* fences = nullptr;
  /// Online p_a model fed by this evaluator's verdicts (see
  /// traversal/pa_model.h): fresh SQL verdicts and level-1 shortcut verdicts
  /// are observed; cache hits and R1/R2-inferred statuses are not — each
  /// verdict must be sampled exactly once. The model is thread-safe, so
  /// the evaluators of every DebugService worker may share it. Null = no
  /// observation.
  PaModel* pa_model = nullptr;
};

/// Evaluates node aliveness for one interpretation. Not thread-safe itself
/// (one evaluator per strategy run, on the calling thread), but the
/// optional VerdictCache it consults is shared and thread-safe. Memoization
/// of outcomes within a traversal belongs to the strategy (the no-reuse
/// variants deliberately re-execute); the verdict cache adds the *session*
/// dimension: verdicts persist across interpretations and repeated queries
/// until the database epoch changes.
class QueryEvaluator {
 public:
  QueryEvaluator(const Database* db, Executor* executor,
                 const PrunedLattice* pl, const InvertedIndex* index,
                 EvalOptions options = {}, VerdictCache* cache = nullptr);

  /// True iff the node's query returns at least one tuple.
  StatusOr<bool> IsAlive(NodeId id);

  /// True once the attached cancellation token (if any) has fired. The
  /// strategies poll this at frontier boundaries to degrade to a truncated
  /// partial result instead of starting work they cannot finish.
  bool cancelled() const {
    return options_.cancellation != nullptr && options_.cancellation->Expired();
  }

  /// SQL executions performed through this evaluator (base-level shortcut
  /// evaluations and cache hits do not count, matching the paper's query
  /// counting).
  size_t sql_executed() const { return sql_executed_; }
  double sql_millis() const { return sql_millis_; }

  /// Verdict-cache traffic from this evaluator (zero when no cache is
  /// attached; base-level shortcuts bypass the cache entirely).
  size_t cache_hits() const { return cache_hits_; }
  size_t cache_misses() const { return cache_misses_; }

  /// Verdicts this evaluator fed EvalOptions::pa_model that the model
  /// recorded (a frozen model records none). Counted here rather than read
  /// off the model, whose total also moves with every other evaluator
  /// sharing it.
  size_t pa_observations() const { return pa_observations_; }

  const Executor* executor() const { return executor_; }
  const InvertedIndex* index() const { return index_; }
  VerdictCache* cache() const { return cache_; }

 private:
  /// Feeds one verdict to the attached p_a model, if any.
  void ObservePa(size_t level, bool alive);

  /// Memoized canonical label of the node's join tree.
  const std::string& CanonicalFor(NodeId id);

  /// The distinct tables a node's join tree binds, plus their relation mask
  /// (RelationFences::BitFor bits). Tables are sorted by catalog index so
  /// isomorphic nodes (same canonical label, different vertex order) produce
  /// the same relation-set fingerprint and share cache entries.
  struct NodeRelations {
    bool filled = false;
    uint64_t rel_mask = 0;
    std::vector<const Table*> tables;
  };
  const NodeRelations& RelationsFor(NodeId id);

  /// Fingerprint over the bound tables' (catalog index, data epoch) pairs:
  /// changes exactly when one of those tables takes a write, so verdicts
  /// keyed by it go unreachable (and are then reaped by EvictRelations or
  /// LRU aging) without touching verdicts over other relations.
  static uint64_t RelsetVersion(const NodeRelations& rels);

  const Database* db_;
  Executor* executor_;
  const PrunedLattice* pl_;
  const InvertedIndex* index_;
  EvalOptions options_;
  VerdictCache* cache_;
  std::string binding_sig_;  ///< Computed once from pl_->binding().
  std::vector<std::string> canonical_memo_;  ///< Lazily filled per node.
  std::vector<NodeRelations> relations_memo_;  ///< Lazily filled per node.
  /// Built on the first SQL verdict, so interpretations answered entirely
  /// from the cache or the level-1 shortcuts resolve nothing.
  std::optional<NodePlanBuilder> plan_builder_;
  JoinPlan plan_;  ///< Reused by every SQL verdict.
  size_t sql_executed_ = 0;
  double sql_millis_ = 0;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t pa_observations_ = 0;
  size_t pa_bucket_ = 0;  ///< Selectivity bucket of pl_'s binding (only
                          ///< computed when a pa_model is attached).
};

}  // namespace kwsdbg

#endif  // KWSDBG_TRAVERSAL_EVALUATOR_H_
