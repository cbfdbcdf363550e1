#include "traversal/evaluator.h"

#include <algorithm>

#include "common/fault_injector.h"
#include "common/timer.h"
#include "lattice/canonical_label.h"
#include "traversal/pa_model.h"

namespace kwsdbg {

QueryEvaluator::QueryEvaluator(const Database* db, Executor* executor,
                               const PrunedLattice* pl,
                               const InvertedIndex* index, EvalOptions options,
                               VerdictCache* cache)
    : db_(db),
      executor_(executor),
      pl_(pl),
      index_(index),
      options_(options),
      cache_(cache) {
  if (cache_ != nullptr) {
    binding_sig_ = pl_->binding().Signature();
    canonical_memo_.resize(pl_->lattice().num_nodes());
  }
  if (cache_ != nullptr || options_.fences != nullptr) {
    relations_memo_.resize(pl_->lattice().num_nodes());
  }
  if (options_.pa_model != nullptr) {
    pa_bucket_ = SelectivityBucketFor(*pl_, index_);
  }
}

void QueryEvaluator::ObservePa(size_t level, bool alive) {
  if (options_.pa_model != nullptr &&
      options_.pa_model->Observe(level, pa_bucket_, alive)) {
    ++pa_observations_;
  }
}

const std::string& QueryEvaluator::CanonicalFor(NodeId id) {
  std::string& memo = canonical_memo_[id];
  if (memo.empty()) memo = CanonicalLabel(pl_->lattice().node(id).tree);
  return memo;
}

const QueryEvaluator::NodeRelations& QueryEvaluator::RelationsFor(NodeId id) {
  NodeRelations& memo = relations_memo_[id];
  if (memo.filled) return memo;
  const JoinTree& tree = pl_->lattice().node(id).tree;
  for (const RelationCopy& v : tree.vertices()) {
    const std::string& name = pl_->lattice().schema().relation(v.relation).name;
    const Table* t = db_->FindTable(name);
    if (t == nullptr) continue;  // IsAlive reports the missing table itself.
    memo.rel_mask |= RelationFences::BitFor(t->catalog_index());
    memo.tables.push_back(t);
  }
  std::sort(memo.tables.begin(), memo.tables.end(),
            [](const Table* a, const Table* b) {
              return a->catalog_index() < b->catalog_index();
            });
  memo.tables.erase(std::unique(memo.tables.begin(), memo.tables.end()),
                    memo.tables.end());
  memo.filled = true;
  return memo;
}

uint64_t QueryEvaluator::RelsetVersion(const NodeRelations& rels) {
  size_t seed = 0x9e3779b97f4a7c15ull;
  for (const Table* t : rels.tables) {
    HashCombine(&seed, std::hash<uint64_t>{}(t->catalog_index()));
    HashCombine(&seed, std::hash<uint64_t>{}(t->data_epoch()));
  }
  return seed;
}

StatusOr<bool> QueryEvaluator::IsAlive(NodeId id) {
  const LatticeNode& node = pl_->lattice().node(id);
  // Fence the relations this node binds (shared) for the whole evaluation —
  // including the level-1 shortcuts, which read live_rows() / the inverted
  // index — so a concurrent LiveMutator::Apply to any of them waits or
  // happens entirely before/after this verdict, never halfway through it.
  uint64_t rel_mask = 0;
  const NodeRelations* rels = nullptr;
  if (cache_ != nullptr || options_.fences != nullptr) {
    rels = &RelationsFor(id);
    rel_mask = rels->rel_mask;
  }
  RelationReadGuard fence_guard(options_.fences, rel_mask);
  if (options_.base_nodes_via_index && node.level == 1) {
    const RelationCopy v = node.tree.vertex(0);
    const std::string& table = pl_->lattice().schema().relation(v.relation).name;
    if (v.copy == 0) {
      // Free copy: SELECT * FROM R — alive iff the table has live rows
      // (tombstoned rows are invisible to every scan).
      const Table* t = db_->FindTable(table);
      if (t == nullptr) return Status::NotFound("no table " + table);
      const bool alive = t->live_rows() > 0;
      ObservePa(node.level, alive);
      return alive;
    }
    const std::string* kw = pl_->binding().KeywordFor(v);
    if (kw != nullptr) {
      // The inverted index told Phase 1 the keyword occurs in this table; a
      // token occurrence implies the LIKE '%kw%' scan matches too.
      const bool alive = index_->TableContains(*kw, table);
      ObservePa(node.level, alive);
      return alive;
    }
    // Unbound keyword copy should have been pruned; fall through to SQL.
  }
  // Capture the epoch and the relation-set fingerprint once, before
  // evaluation: a verdict must be keyed under the versions whose data
  // produced it. Re-reading them at insert time would mis-key a verdict as
  // current when a mutation landed between the SQL run and the insert — a
  // stale verdict that every later reader would then trust. (Under fences
  // the race cannot happen within one evaluation, but the capture-once rule
  // also covers fence-less single-writer deployments.)
  const uint64_t epoch = db_->epoch();
  const uint64_t relset = rels != nullptr ? RelsetVersion(*rels) : 0;
  // Verdict-tier fault point: sits before both the lookup and the SQL, so
  // an injected outage fails the evaluation with a typed retryable status
  // instead of risking a verdict the (faulted) tier could not record.
  KWSDBG_FAULT_POINT("cache.verdict.lookup");
  if (cache_ != nullptr) {
    std::optional<bool> verdict =
        cache_->Lookup(CanonicalFor(id), binding_sig_, epoch, relset);
    if (verdict.has_value()) {
      ++cache_hits_;
      return *verdict;
    }
    ++cache_misses_;
  }
  if (cancelled()) {
    return Status::DeadlineExceeded("node evaluation cancelled");
  }
  if (!plan_builder_.has_value()) {
    // Resolved against the executor's database, which the SQL runs on.
    plan_builder_.emplace(pl_->lattice().schema(), *executor_->db(),
                          pl_->binding());
  }
  KWSDBG_RETURN_NOT_OK(plan_builder_->Build(node.tree, &plan_));
  Timer timer;
  KWSDBG_ASSIGN_OR_RETURN(bool alive, executor_->IsNonEmpty(plan_));
  ++sql_executed_;
  sql_millis_ += timer.ElapsedMillis();
  // A fresh SQL verdict is a free labeled p_a sample (cache hits above are
  // not re-observed — they were sampled when first evaluated).
  ObservePa(node.level, alive);
  if (cache_ != nullptr) {
    cache_->Insert(CanonicalFor(id), binding_sig_, epoch, relset, alive,
                   rel_mask);
  }
  return alive;
}

}  // namespace kwsdbg
