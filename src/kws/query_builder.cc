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

/// Each relation's table in `db`, by RelationId, or GetTable's status.
std::vector<StatusOr<const Table*>> ResolveTables(const SchemaGraph& schema,
                                                  const Database& db) {
  std::vector<StatusOr<const Table*>> tables;
  tables.reserve(schema.num_relations());
  for (const RelationInfo& rel : schema.relations()) {
    StatusOr<Table*> table = db.GetTable(rel.name);
    if (table.ok()) {
      tables.emplace_back(*table);
    } else {
      tables.emplace_back(table.status());
    }
  }
  return tables;
}

StatusOr<size_t> ColumnOf(const StatusOr<const Table*>& table,
                          const std::string& column) {
  if (!table.ok()) return table.status();
  return (*table)->schema().ColumnIndex(column);
}

void AppendAlias(const std::string& table, uint16_t copy, std::string* out) {
  out->append(table);
  out->push_back('_');
  out->append(std::to_string(copy));
}

/// QuoteSqlString(ContainsPattern(keyword)) in one pass: the escape only
/// adds backslashes, which the quoting leaves alone.
void AppendQuotedContainsPattern(const std::string& keyword,
                                 std::string* out) {
  out->append("'%");
  for (char c : keyword) {
    if (c == '%' || c == '_' || c == '\\') {
      out->push_back('\\');
    } else if (c == '\'') {
      out->push_back('\'');
    }
    out->push_back(c);
  }
  out->append("%'");
}

}  // namespace

NodePlanBuilder::NodePlanBuilder(const SchemaGraph& schema,
                                 const Database& db,
                                 const KeywordBinding& binding)
    : schema_(&schema), tables_(ResolveTables(schema, db)) {
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

NodeTextRenderer::NodeTextRenderer(const SchemaGraph& schema,
                                   const Database& db)
    : schema_(&schema) {
  const std::vector<StatusOr<const Table*>> tables = ResolveTables(schema, db);
  relations_.reserve(tables.size());
  for (const StatusOr<const Table*>& table : tables) {
    Relation& rel = relations_.emplace_back();
    rel.table = table.status();
    if (!table.ok()) continue;
    const Schema& columns = (*table)->schema();
    for (size_t col : columns.TextColumnIndices()) {
      rel.text_columns.push_back(&columns.column(col).name);
    }
  }
  edges_.reserve(schema.num_edges());
  for (const JoinEdge& e : schema.edges()) {
    edges_.push_back(
        EdgeColumns{ColumnOf(tables[e.from], e.from_column).status(),
                    ColumnOf(tables[e.to], e.to_column).status()});
  }
}

Status NodeTextRenderer::Render(const JoinTree& tree,
                                const KeywordBinding& binding,
                                std::string* network,
                                std::string* sql) const {
  // Checks run in BuildNodeQuery's, Validate's and ToSql's order, so a node
  // that fails both ways fails with the same status. Each one precedes the
  // text it guards; on failure the caller drops the partial text.
  for (const RelationCopy& v : tree.vertices()) {
    if (v.copy != 0 && binding.KeywordFor(v) == nullptr) {
      std::string alias;
      AppendAlias(schema_->relation(v.relation).name, v.copy, &alias);
      return Status::FailedPrecondition(
          "tree vertex " + alias +
          " is an unbound keyword copy; was Phase 1 pruning skipped?");
    }
  }
  tree.AppendTo(*schema_, network);
  sql->append("SELECT * FROM ");
  for (size_t i = 0; i < tree.num_vertices(); ++i) {
    const RelationCopy& v = tree.vertex(i);
    const Status& found = relations_[v.relation].table;
    if (!found.ok()) return found;
    const std::string& table = schema_->relation(v.relation).name;
    if (i > 0) sql->append(", ");
    sql->append(table);
    sql->append(" AS ");
    AppendAlias(table, v.copy, sql);
  }
  // A single free vertex has no conjunct and so no WHERE.
  const char* glue = " WHERE ";
  for (const JoinTreeEdge& e : tree.edges()) {
    const JoinEdge& se = schema_->edge(e.schema_edge);
    const EdgeColumns& columns = edges_[e.schema_edge];
    const RelationCopy& a = tree.vertex(e.a);
    const RelationCopy& b = tree.vertex(e.b);
    // BuildNodeQuery orients each join from vertex a's side, and Validate
    // looks that side's column up first.
    const bool forward = se.from == a.relation;
    const Status& left = forward ? columns.from : columns.to;
    const Status& right = forward ? columns.to : columns.from;
    if (!left.ok()) return left;
    if (!right.ok()) return right;
    sql->append(glue);
    glue = " AND ";
    AppendAlias(schema_->relation(a.relation).name, a.copy, sql);
    sql->push_back('.');
    sql->append(forward ? se.from_column : se.to_column);
    sql->append(" = ");
    AppendAlias(schema_->relation(b.relation).name, b.copy, sql);
    sql->push_back('.');
    sql->append(forward ? se.to_column : se.from_column);
  }
  for (const RelationCopy& v : tree.vertices()) {
    if (v.copy == 0) continue;
    const std::string& keyword = *binding.KeywordFor(v);
    if (keyword.empty()) continue;
    const std::string& table = schema_->relation(v.relation).name;
    const std::vector<const std::string*>& columns =
        relations_[v.relation].text_columns;
    if (columns.empty()) {
      return Status::FailedPrecondition("keyword '" + keyword +
                                        "' bound to text-free table " + table);
    }
    sql->append(glue);
    glue = " AND ";
    sql->push_back('(');
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) sql->append(" OR ");
      AppendAlias(table, v.copy, sql);
      sql->push_back('.');
      sql->append(*columns[c]);
      sql->append(" LIKE ");
      AppendQuotedContainsPattern(keyword, sql);
    }
    sql->push_back(')');
  }
  return Status::OK();
}

}  // namespace kwsdbg
