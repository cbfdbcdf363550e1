// Interactive non-answer debugging (the paper's Sec. 5 future-work
// direction): instead of classifying the whole search space in one batch, a
// developer probes one sub-query at a time, can inject outside knowledge
// ("I know this join is empty — we never imported that feed"), and watches
// the answer/non-answer frontier sharpen. The session keeps the same R1/R2
// inference as the batch strategies, so every probe or assertion classifies
// as much of the space as logic allows.
#ifndef KWSDBG_DEBUGGER_INTERACTIVE_SESSION_H_
#define KWSDBG_DEBUGGER_INTERACTIVE_SESSION_H_

#include <string>
#include <vector>

#include "kws/pruned_lattice.h"
#include "traversal/evaluator.h"
#include "traversal/node_status.h"

namespace kwsdbg {

/// A suggested next probe with its expected usefulness.
struct ProbeSuggestion {
  NodeId node = kInvalidNode;
  /// Expected number of additional classifications (the SBH gain
  /// W + (1-p_a)A + p_a D for the node; larger is better).
  double expected_gain = 0;
  std::string network;  ///< Human rendering of the node's join network.
};

/// One interpretation's interactive exploration, in node ids. Suggestions
/// score with batch SBH's state at its static p_a (SbhOptions). The
/// PrunedLattice and evaluator must outlive the session.
class InteractiveSession {
 public:
  InteractiveSession(const PrunedLattice* pl, QueryEvaluator* evaluator);

  /// The most informative unclassified node under the SBH score (Eq. 1), or
  /// node == kInvalidNode when everything is classified.
  ProbeSuggestion SuggestProbe() const;

  /// Evaluates the node's SQL (unless already known) and propagates R1/R2.
  /// Returns its aliveness.
  StatusOr<bool> Probe(NodeId id);

  /// Injects outside knowledge without running SQL; propagates R1/R2.
  /// Errors if the node is already classified to the contrary.
  Status AssertAlive(NodeId id);
  Status AssertDead(NodeId id);

  /// Current classification of a node (kPossiblyAlive outside the search
  /// space).
  NodeStatus StatusOf(NodeId id) const;

  /// Unclassified retained nodes remaining.
  size_t UnknownCount() const;

  /// True when the MTN's fate — and, if dead, its complete MPAN set — is
  /// fully determined by the current knowledge.
  bool MtnResolved(NodeId mtn) const;

  /// The MPANs already determinable: alive nodes in Desc(mtn) all of whose
  /// parents inside the MTN's sub-lattice are known dead, ascending. When
  /// MtnResolved(mtn) holds this is the complete MPAN set.
  std::vector<NodeId> KnownMpans(NodeId mtn) const;

  /// The culprits (minimal dead sub-networks) already determinable: dead
  /// nodes in Desc+(mtn) all of whose children are known alive, ascending.
  /// Complete once MtnResolved(mtn) holds.
  std::vector<NodeId> KnownCulprits(NodeId mtn) const;

  /// Finishes the remaining space automatically (SBH loop) and returns the
  /// number of SQL queries that took.
  StatusOr<size_t> FinishAutomatically();

  const PrunedLattice& pruned_lattice() const { return *pl_; }

 private:
  /// Local id of a node the session may classify, or InvalidArgument.
  StatusOr<LocalId> InSearchSpace(NodeId id) const;

  const PrunedLattice* pl_;
  QueryEvaluator* evaluator_;
  SbhState state_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_DEBUGGER_INTERACTIVE_SESSION_H_
