#include "debugger/interactive_session.h"

#include <bit>

#include "traversal/strategy.h"

namespace kwsdbg {

InteractiveSession::InteractiveSession(const PrunedLattice* pl,
                                       QueryEvaluator* evaluator)
    : pl_(pl),
      evaluator_(evaluator),
      state_(*pl, std::vector<double>(pl->MaxRetainedLevel() + 1,
                                      SbhOptions{}.alive_probability)) {}

StatusOr<LocalId> InteractiveSession::InSearchSpace(NodeId id) const {
  const LocalId l = pl_->LocalOf(id);
  if (l == kNotRetained) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " is not in this query's search space");
  }
  return l;
}

ProbeSuggestion InteractiveSession::SuggestProbe() const {
  ProbeSuggestion best;
  const LocalId l = state_.Pick();
  if (l == kNotRetained) return best;
  best.node = pl_->retained()[l];
  best.expected_gain = state_.Gain(l);
  best.network =
      pl_->lattice().node(best.node).tree.ToString(pl_->lattice().schema());
  return best;
}

StatusOr<bool> InteractiveSession::Probe(NodeId id) {
  KWSDBG_ASSIGN_OR_RETURN(LocalId l, InSearchSpace(id));
  if (state_.status().IsKnown(l)) return state_.status().IsAlive(l);
  KWSDBG_ASSIGN_OR_RETURN(bool alive, evaluator_->IsAlive(id));
  state_.Classify(l, alive);
  return alive;
}

Status InteractiveSession::AssertAlive(NodeId id) {
  KWSDBG_ASSIGN_OR_RETURN(LocalId l, InSearchSpace(id));
  if (state_.status().IsDead(l)) {
    return Status::FailedPrecondition(
        "node already classified dead; the assertion contradicts it");
  }
  state_.Classify(l, true);
  return Status::OK();
}

Status InteractiveSession::AssertDead(NodeId id) {
  KWSDBG_ASSIGN_OR_RETURN(LocalId l, InSearchSpace(id));
  if (state_.status().IsAlive(l)) {
    return Status::FailedPrecondition(
        "node already classified alive; the assertion contradicts it");
  }
  state_.Classify(l, false);
  return Status::OK();
}

NodeStatus InteractiveSession::StatusOf(NodeId id) const {
  const LocalId l = pl_->LocalOf(id);
  return l == kNotRetained ? NodeStatus::kPossiblyAlive
                           : state_.status().Get(l);
}

size_t InteractiveSession::UnknownCount() const {
  size_t n = 0;
  for (uint64_t word : state_.status().unknown()) n += std::popcount(word);
  return n;
}

bool InteractiveSession::MtnResolved(NodeId mtn) const {
  const LocalId l = pl_->LocalOf(mtn);
  if (l == kNotRetained || !state_.status().IsKnown(l)) return false;
  // An answer query needs no MPANs; a non-answer needs its sub-lattice.
  return state_.status().IsAlive(l) ||
         state_.status().AllKnown(pl_->DescendantRow(l));
}

std::vector<NodeId> InteractiveSession::KnownMpans(NodeId mtn) const {
  std::vector<NodeId> mpans, culprits;
  const LocalId l = pl_->LocalOf(mtn);
  if (l != kNotRetained) {
    ExtractFrontier(*pl_, state_.status(), l, &mpans, &culprits);
  }
  return mpans;
}

std::vector<NodeId> InteractiveSession::KnownCulprits(NodeId mtn) const {
  std::vector<NodeId> mpans, culprits;
  const LocalId l = pl_->LocalOf(mtn);
  if (l != kNotRetained) {
    ExtractFrontier(*pl_, state_.status(), l, &mpans, &culprits);
  }
  return culprits;
}

StatusOr<size_t> InteractiveSession::FinishAutomatically() {
  const size_t sql_before = evaluator_->sql_executed();
  while (true) {
    ProbeSuggestion next = SuggestProbe();
    if (next.node == kInvalidNode) break;
    KWSDBG_CHECK_OK_OR_RETURN(Probe(next.node));
  }
  return evaluator_->sql_executed() - sql_before;
}

}  // namespace kwsdbg
