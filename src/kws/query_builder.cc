#include "kws/query_builder.h"

#include <algorithm>

#include "common/string_util.h"

namespace kwsdbg {

StatusOr<JoinNetworkQuery> BuildNodeQuery(const JoinTree& tree,
                                          const SchemaGraph& schema,
                                          const KeywordBinding& binding) {
  JoinNetworkQuery query;
  for (const RelationCopy& v : tree.vertices()) {
    const RelationInfo& rel = schema.relation(v.relation);
    QueryVertex qv;
    qv.table = rel.name;
    qv.alias = rel.name + "_" + std::to_string(v.copy);
    if (v.copy != 0) {
      const std::string* kw = binding.KeywordFor(v);
      if (kw == nullptr) {
        return Status::FailedPrecondition(
            "tree vertex " + qv.alias +
            " is an unbound keyword copy; was Phase 1 pruning skipped?");
      }
      qv.keyword = *kw;
    }
    query.vertices.push_back(std::move(qv));
  }
  for (const JoinTreeEdge& e : tree.edges()) {
    const JoinEdge& se = schema.edge(e.schema_edge);
    const RelationId ra = tree.vertex(e.a).relation;
    QueryJoin join;
    if (se.from == ra) {
      join = QueryJoin{e.a, se.from_column, e.b, se.to_column};
    } else {
      join = QueryJoin{e.a, se.to_column, e.b, se.from_column};
    }
    query.joins.push_back(std::move(join));
  }
  return query;
}

StatusOr<JoinNetworkQuery> BuildNodeQuery(const Lattice& lattice, NodeId id,
                                          const KeywordBinding& binding) {
  return BuildNodeQuery(lattice.node(id).tree, lattice.schema(), binding);
}

namespace {

StatusOr<size_t> ColumnOf(const StatusOr<const Table*>& table,
                          const std::string& column) {
  if (!table.ok()) return table.status();
  return (*table)->schema().ColumnIndex(column);
}

}  // namespace

NodePlanBuilder::NodePlanBuilder(const SchemaGraph& schema,
                                 const Database& db,
                                 const KeywordBinding& binding)
    : schema_(&schema) {
  tables_.reserve(schema.num_relations());
  for (const RelationInfo& rel : schema.relations()) {
    StatusOr<Table*> table = db.GetTable(rel.name);
    if (table.ok()) {
      tables_.emplace_back(*table);
    } else {
      tables_.emplace_back(table.status());
    }
  }
  edges_.reserve(schema.num_edges());
  for (const JoinEdge& e : schema.edges()) {
    edges_.push_back(EdgeColumns{ColumnOf(tables_[e.from], e.from_column),
                                 ColumnOf(tables_[e.to], e.to_column)});
  }
  for (const KeywordAssignment& a : binding.assignments()) {
    keywords_.push_back(BoundCopy{a.vertex, ToLower(a.keyword)});
  }
}

Status NodePlanBuilder::Build(const JoinTree& tree, JoinPlan* plan) const {
  // Checks run in BuildNodeQuery's and Validate's order, so a node that
  // fails both ways fails with the same status.
  const size_t n = tree.num_vertices();
  plan->vertices.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RelationCopy& v = tree.vertex(i);
    std::string& keyword = plan->vertices[i].keyword;
    keyword.clear();
    if (v.copy == 0) continue;
    auto bound = std::find_if(
        keywords_.begin(), keywords_.end(),
        [&v](const BoundCopy& b) { return b.vertex == v; });
    if (bound == keywords_.end()) {
      return Status::FailedPrecondition(
          "tree vertex " + schema_->relation(v.relation).name + "_" +
          std::to_string(v.copy) +
          " is an unbound keyword copy; was Phase 1 pruning skipped?");
    }
    keyword = bound->keyword;
  }
  for (size_t i = 0; i < n; ++i) {
    const StatusOr<const Table*>& table = tables_[tree.vertex(i).relation];
    if (!table.ok()) return table.status();
    plan->vertices[i].table = *table;
  }
  plan->joins.clear();
  for (const JoinTreeEdge& e : tree.edges()) {
    const EdgeColumns& columns = edges_[e.schema_edge];
    // BuildNodeQuery orients each join from vertex a's side.
    const bool forward =
        schema_->edge(e.schema_edge).from == tree.vertex(e.a).relation;
    const StatusOr<size_t>& left = forward ? columns.from : columns.to;
    const StatusOr<size_t>& right = forward ? columns.to : columns.from;
    if (!left.ok()) return left.status();
    if (!right.ok()) return right.status();
    plan->joins.push_back(JoinPlan::Join{e.a, e.b, *left, *right});
  }
  plan->selections.clear();
  plan->like_selections.clear();
  return Status::OK();
}

}  // namespace kwsdbg
