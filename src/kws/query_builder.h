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

/// Renders a lattice node's report text straight from its tree and a
/// binding: the network as JoinTree::ToString prints it and the SQL as
/// BuildNodeQuery(tree, schema, binding)->ToSql(db) prints it, byte for
/// byte, without building, validating or printing a query. What the text
/// needs is resolved once: relation id -> the table's lookup status and its
/// text-column names in schema order, schema edge -> its join columns'
/// lookup statuses. Nothing is sized by the lattice.
class NodeTextRenderer {
 public:
  /// `schema` and `db` must outlive the renderer, and `db`'s tables must
  /// keep their schemas: it holds pointers to their column names.
  NodeTextRenderer(const SchemaGraph& schema, const Database& db);

  /// Appends `tree`'s network to `network` and its SQL under `binding` to
  /// `sql`, or fails as the query path would, checking in its order: an
  /// unbound keyword copy is kFailedPrecondition; then a missing table,
  /// then a missing join column, is kNotFound; then a keyword bound to a
  /// table without text columns is kFailedPrecondition. On failure both
  /// strings may hold partial text. `tree` must be valid against the
  /// schema (JoinTree::Validate), as every lattice node is.
  Status Render(const JoinTree& tree, const KeywordBinding& binding,
                std::string* network, std::string* sql) const;

 private:
  struct Relation {
    Status table;  ///< Database::GetTable's status.
    std::vector<const std::string*> text_columns;
  };
  /// Schema::ColumnIndex's status for each side of a schema edge.
  struct EdgeColumns {
    Status from;
    Status to;
  };

  const SchemaGraph* schema_;
  std::vector<Relation> relations_;  ///< By RelationId.
  std::vector<EdgeColumns> edges_;   ///< By EdgeId.
};

}  // namespace kwsdbg

#endif  // KWSDBG_KWS_QUERY_BUILDER_H_
