#include "sql/join_network.h"

#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "sql/like_matcher.h"

namespace kwsdbg {

StatusOr<std::string> JoinNetworkQuery::ToSql(const Database& db) const {
  KWSDBG_RETURN_NOT_OK(Validate(db));
  SelectStatement stmt;
  stmt.select_all = true;
  for (const QueryVertex& v : vertices) {
    stmt.from.push_back(FromItem{v.table, v.alias});
  }
  for (const QueryJoin& j : joins) {
    stmt.where.emplace_back(JoinPredicate{
        ColumnRef{vertices[j.left].alias, j.left_column},
        ColumnRef{vertices[j.right].alias, j.right_column}});
  }
  for (const QuerySelection& sel : selections) {
    stmt.where.emplace_back(ConstantPredicate{
        ColumnRef{vertices[sel.vertex].alias, sel.column},
        sel.value.is_string(), sel.value.ToString()});
  }
  for (const QueryLikeSelection& like : like_selections) {
    stmt.where.emplace_back(LikePredicate{
        ColumnRef{vertices[like.vertex].alias, like.column}, like.pattern});
  }
  for (const QueryVertex& v : vertices) {
    if (v.keyword.empty()) continue;
    const Table* table = db.FindTable(v.table);
    if (table == nullptr) {
      // ToSql may run on an un-Validated query (e.g. diagnostics rendering).
      return Status::NotFound("no table named '" + v.table + "'");
    }
    OrLikes ors;
    for (size_t col : table->schema().TextColumnIndices()) {
      ors.likes.push_back(
          LikePredicate{ColumnRef{v.alias, table->schema().column(col).name},
                        ContainsPattern(v.keyword)});
    }
    if (ors.likes.empty()) {
      return Status::FailedPrecondition(
          "keyword '" + v.keyword + "' bound to text-free table " + v.table);
    }
    stmt.where.emplace_back(std::move(ors));
  }
  return stmt.ToSql();
}

Status JoinNetworkQuery::Validate(const Database& db, JoinPlan* plan) const {
  if (vertices.empty()) {
    return Status::InvalidArgument("query has no relation instances");
  }
  // Resolved in the vertex loop, so each table is looked up by name once.
  std::vector<const Table*> tables;
  tables.reserve(vertices.size());
  std::unordered_set<std::string> aliases;
  for (const QueryVertex& v : vertices) {
    KWSDBG_ASSIGN_OR_RETURN(Table * table, db.GetTable(v.table));
    tables.push_back(table);
    if (v.alias.empty()) {
      return Status::InvalidArgument("empty alias for table " + v.table);
    }
    if (!aliases.insert(v.alias).second) {
      return Status::InvalidArgument("duplicate alias '" + v.alias + "'");
    }
  }
  for (const QueryJoin& j : joins) {
    if (j.left >= vertices.size() || j.right >= vertices.size()) {
      return Status::InvalidArgument("join references missing instance");
    }
    KWSDBG_ASSIGN_OR_RETURN(
        size_t lcol, tables[j.left]->schema().ColumnIndex(j.left_column));
    KWSDBG_ASSIGN_OR_RETURN(
        size_t rcol, tables[j.right]->schema().ColumnIndex(j.right_column));
    if (plan != nullptr) {
      plan->joins.push_back(JoinPlan::Join{j.left, j.right, lcol, rcol});
    }
  }
  for (const QuerySelection& sel : selections) {
    if (sel.vertex >= vertices.size()) {
      return Status::InvalidArgument("selection references missing instance");
    }
    KWSDBG_ASSIGN_OR_RETURN(
        size_t col, tables[sel.vertex]->schema().ColumnIndex(sel.column));
    if (plan != nullptr) {
      plan->selections.push_back(
          JoinPlan::Selection{sel.vertex, col, sel.value});
    }
  }
  for (const QueryLikeSelection& like : like_selections) {
    if (like.vertex >= vertices.size()) {
      return Status::InvalidArgument(
          "LIKE selection references missing instance");
    }
    const Table* t = tables[like.vertex];
    KWSDBG_ASSIGN_OR_RETURN(size_t col,
                            t->schema().ColumnIndex(like.column));
    if (t->schema().column(col).type != DataType::kString) {
      return Status::InvalidArgument("LIKE on non-text column '" +
                                     like.column + "'");
    }
    if (plan != nullptr) {
      plan->like_selections.push_back(
          JoinPlan::LikeSelection{like.vertex, col, like.pattern});
    }
  }
  if (plan != nullptr) {
    for (size_t i = 0; i < vertices.size(); ++i) {
      plan->vertices.push_back(
          JoinPlan::Vertex{tables[i], ToLower(vertices[i].keyword)});
    }
  }
  return Status::OK();
}

StatusOr<JoinNetworkQuery> FromSelectStatement(const SelectStatement& stmt,
                                               const Database& db) {
  if (!stmt.select_all) {
    return Status::InvalidArgument(
        "join-network queries must SELECT * (the KWS-S templates do)");
  }
  JoinNetworkQuery query;
  std::unordered_map<std::string, uint16_t> alias_index;
  for (const FromItem& item : stmt.from) {
    const std::string& alias = item.EffectiveAlias();
    if (alias_index.count(alias)) {
      return Status::InvalidArgument("duplicate alias '" + alias + "'");
    }
    alias_index.emplace(alias, static_cast<uint16_t>(query.vertices.size()));
    query.vertices.push_back(QueryVertex{item.table, alias, ""});
  }
  auto resolve = [&](const ColumnRef& ref) -> StatusOr<uint16_t> {
    if (ref.alias.empty()) {
      // Unqualified column: unique owner among the FROM tables.
      int found = -1;
      for (size_t i = 0; i < query.vertices.size(); ++i) {
        const Table* t = db.FindTable(query.vertices[i].table);
        if (t != nullptr && t->schema().HasColumn(ref.column)) {
          if (found >= 0) {
            return Status::InvalidArgument("ambiguous column '" + ref.column +
                                           "'");
          }
          found = static_cast<int>(i);
        }
      }
      if (found < 0) {
        return Status::NotFound("unknown column '" + ref.column + "'");
      }
      return static_cast<uint16_t>(found);
    }
    auto it = alias_index.find(ref.alias);
    if (it == alias_index.end()) {
      return Status::NotFound("unknown alias '" + ref.alias + "'");
    }
    return it->second;
  };

  auto apply_like = [&](const LikePredicate& like) -> Status {
    KWSDBG_ASSIGN_OR_RETURN(uint16_t v, resolve(like.column));
    std::string kw = ExtractContainedKeyword(like.pattern);
    if (kw.empty()) {
      return Status::InvalidArgument(
          "LIKE pattern '" + like.pattern +
          "' is not a containment pattern '%kw%'");
    }
    QueryVertex& qv = query.vertices[v];
    if (!qv.keyword.empty() && !EqualsCaseInsensitive(qv.keyword, kw)) {
      return Status::InvalidArgument("two keywords ('" + qv.keyword +
                                     "', '" + kw + "') on alias '" +
                                     qv.alias + "'");
    }
    qv.keyword = ToLower(kw);
    return Status::OK();
  };

  for (const Conjunct& c : stmt.where) {
    if (const auto* jp = std::get_if<JoinPredicate>(&c)) {
      KWSDBG_ASSIGN_OR_RETURN(uint16_t l, resolve(jp->left));
      KWSDBG_ASSIGN_OR_RETURN(uint16_t r, resolve(jp->right));
      query.joins.push_back(
          QueryJoin{l, jp->left.column, r, jp->right.column});
    } else if (const auto* cp = std::get_if<ConstantPredicate>(&c)) {
      KWSDBG_ASSIGN_OR_RETURN(uint16_t v, resolve(cp->column));
      const Table* t = db.FindTable(query.vertices[v].table);
      if (t == nullptr) {
        // Reachable: a qualified alias resolves without checking that its
        // FROM table exists, so `SELECT * FROM nope n WHERE n.x = 3` lands
        // here with an unknown table.
        return Status::NotFound("no table named '" + query.vertices[v].table +
                                "'");
      }
      KWSDBG_ASSIGN_OR_RETURN(size_t col,
                              t->schema().ColumnIndex(cp->column.column));
      const DataType type = t->schema().column(col).type;
      Value value;
      if (cp->is_string) {
        if (type != DataType::kString) {
          return Status::InvalidArgument("string literal compared to " +
                                         std::string(DataTypeToString(type)) +
                                         " column '" + cp->column.column +
                                         "'");
        }
        value = Value(cp->text);
      } else if (type == DataType::kInt64) {
        try {
          value = Value(static_cast<int64_t>(std::stoll(cp->text)));
        } catch (...) {
          return Status::ParseError("bad integer literal '" + cp->text + "'");
        }
      } else if (type == DataType::kDouble) {
        try {
          value = Value(std::stod(cp->text));
        } catch (...) {
          return Status::ParseError("bad numeric literal '" + cp->text + "'");
        }
      } else {
        return Status::InvalidArgument("numeric literal compared to TEXT "
                                       "column '" +
                                       cp->column.column + "'");
      }
      query.selections.push_back(
          QuerySelection{v, cp->column.column, std::move(value)});
    } else if (const auto* lp = std::get_if<LikePredicate>(&c)) {
      // A bare LIKE conjunct is a column-specific selection (full pattern
      // syntax); only parenthesized OR groups carry keyword semantics.
      KWSDBG_ASSIGN_OR_RETURN(uint16_t v, resolve(lp->column));
      query.like_selections.push_back(
          QueryLikeSelection{v, lp->column.column, lp->pattern});
    } else {
      const auto& ors = std::get<OrLikes>(c);
      if (ors.likes.empty()) {
        return Status::InvalidArgument("empty OR group");
      }
      // All branches must target the same alias with the same keyword —
      // that's the "keyword over this relation's text columns" shape.
      KWSDBG_ASSIGN_OR_RETURN(uint16_t v0, resolve(ors.likes[0].column));
      std::string kw0 = ExtractContainedKeyword(ors.likes[0].pattern);
      for (const LikePredicate& like : ors.likes) {
        KWSDBG_ASSIGN_OR_RETURN(uint16_t v, resolve(like.column));
        std::string kw = ExtractContainedKeyword(like.pattern);
        if (v != v0 || !EqualsCaseInsensitive(kw, kw0)) {
          return Status::InvalidArgument(
              "OR group mixes aliases or keywords");
        }
      }
      KWSDBG_RETURN_NOT_OK(apply_like(ors.likes[0]));
    }
  }
  KWSDBG_RETURN_NOT_OK(query.Validate(db));
  return query;
}

}  // namespace kwsdbg
