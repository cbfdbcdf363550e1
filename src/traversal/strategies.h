// Concrete strategy constructors (used by the MakeStrategy factory and by
// tests that need a specific strategy type).
#ifndef KWSDBG_TRAVERSAL_STRATEGIES_H_
#define KWSDBG_TRAVERSAL_STRATEGIES_H_

#include <memory>

#include "traversal/strategy.h"

namespace kwsdbg {

/// BU (Sec. 2.5.1): per MTN, sweep its sub-lattice bottom-up; R2 propagates
/// deadness upward. No sharing across MTNs.
std::unique_ptr<TraversalStrategy> MakeBottomUp();

/// TD (Sec. 2.5.1): per MTN, sweep its sub-lattice top-down; R1 propagates
/// aliveness downward. No sharing across MTNs.
std::unique_ptr<TraversalStrategy> MakeTopDown();

/// BUWR (Sec. 2.5.2, Algorithm 3): one global bottom-up sweep over all MTNs'
/// sub-lattices, sharing every common descendant's classification.
std::unique_ptr<TraversalStrategy> MakeBottomUpWithReuse();

/// TDWR (Sec. 2.5.2): the top-down twin of BUWR.
std::unique_ptr<TraversalStrategy> MakeTopDownWithReuse();

/// SBH (Sec. 2.5.3): greedy selection of the node whose evaluation minimizes
/// the expected remaining search space (Eq. 1) with alive-probability p_a.
std::unique_ptr<TraversalStrategy> MakeScoreBased(SbhOptions options);

}  // namespace kwsdbg

#endif  // KWSDBG_TRAVERSAL_STRATEGIES_H_
