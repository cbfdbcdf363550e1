// Instantiates the SQL query of a lattice node under a keyword binding —
// the runtime half of the node's uninstantiated template (paper Sec. 2.2-2.3).
#ifndef KWSDBG_KWS_QUERY_BUILDER_H_
#define KWSDBG_KWS_QUERY_BUILDER_H_

#include "common/status.h"
#include "kws/keyword_binding.h"
#include "lattice/lattice.h"
#include "sql/join_network.h"

namespace kwsdbg {

/// Builds the executable query for `tree`: one aliased instance per vertex
/// ("Person_1", "authored_0"), the join conditions from the instantiated
/// schema edges, and the bound keyword (if any) on each instance.
StatusOr<JoinNetworkQuery> BuildNodeQuery(const JoinTree& tree,
                                          const SchemaGraph& schema,
                                          const KeywordBinding& binding);

/// Convenience overload resolving the node by id.
StatusOr<JoinNetworkQuery> BuildNodeQuery(const Lattice& lattice, NodeId id,
                                          const KeywordBinding& binding);

/// Builds the executor's plan for a lattice node directly, skipping the
/// strings of BuildNodeQuery and their validation and resolution. What
/// the plan needs is resolved once per binding: relation id -> table,
/// schema edge -> column indexes, bound copy -> lower-cased keyword. These
/// arrays are sized by the schema graph and the binding, never by the
/// lattice.
class NodePlanBuilder {
 public:
  /// `schema`, `db` and `binding` must outlive the builder; the plans hold
  /// pointers to `db`'s tables.
  NodePlanBuilder(const SchemaGraph& schema, const Database& db,
                  const KeywordBinding& binding);

  /// Fills `plan`, reusing its buffers, with what BuildNodeQuery(tree,
  /// schema, binding) compiles to against `db` (JoinNetworkQuery::Validate),
  /// or fails as that pair would: kFailedPrecondition for an unbound keyword
  /// copy, then kNotFound for a missing table or join column.
  Status Build(const JoinTree& tree, JoinPlan* plan) const;

 private:
  /// A schema edge's columns, as indexes into its endpoint tables.
  struct EdgeColumns {
    StatusOr<size_t> from;
    StatusOr<size_t> to;
  };
  struct BoundCopy {
    RelationCopy vertex;
    std::string keyword;  ///< Lower-cased.
  };

  const SchemaGraph* schema_;
  std::vector<StatusOr<const Table*>> tables_;  ///< By RelationId.
  std::vector<EdgeColumns> edges_;              ///< By EdgeId.
  std::vector<BoundCopy> keywords_;             ///< The binding's copies.
};

}  // namespace kwsdbg

#endif  // KWSDBG_KWS_QUERY_BUILDER_H_
