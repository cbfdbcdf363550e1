// JoinNetworkQuery: the executable form of one lattice node's SQL template
// after keyword instantiation — a set of aliased relation instances, a
// conjunction of equi-joins, and at most one keyword per instance (applied as
// an OR of LIKE '%kw%' over the instance's text columns).
#ifndef KWSDBG_SQL_JOIN_NETWORK_H_
#define KWSDBG_SQL_JOIN_NETWORK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace kwsdbg {

/// One relation instance in the query.
struct QueryVertex {
  std::string table;    ///< Physical table name.
  std::string alias;    ///< Unique within the query.
  std::string keyword;  ///< Empty = free instance (no predicate).
};

/// One equi-join between two instances.
struct QueryJoin {
  uint16_t left;  ///< Index into vertices.
  std::string left_column;
  uint16_t right;
  std::string right_column;
};

/// A constant selection `vertex.column = value`.
struct QuerySelection {
  uint16_t vertex;
  std::string column;
  Value value;
};

/// A column-specific LIKE selection `vertex.column LIKE pattern` (full LIKE
/// pattern syntax, % and _). Distinct from QueryVertex::keyword, which is
/// containment over *all* text columns of the instance — the form the KWS-S
/// templates generate.
struct QueryLikeSelection {
  uint16_t vertex;
  std::string column;
  std::string pattern;
};

/// A join-network query with every name resolved against one database:
/// tables as pointers, columns as indexes, keywords lower-cased. It is the
/// form the executor runs. JoinNetworkQuery::Validate compiles a query into
/// it; NodePlanBuilder (kws/query_builder.h) builds one straight from a
/// lattice node without any strings but the keywords. Holds pointers to the
/// database's tables, so it is valid while they are.
struct JoinPlan {
  struct Vertex {
    const Table* table = nullptr;
    std::string keyword;  ///< Lower-cased; empty = free instance.
  };
  /// `vertices[left].left_column = vertices[right].right_column`.
  struct Join {
    uint16_t left = 0;
    uint16_t right = 0;
    size_t left_column = 0;
    size_t right_column = 0;
  };
  /// `vertices[vertex].column = value`.
  struct Selection {
    uint16_t vertex = 0;
    size_t column = 0;
    Value value;
  };
  /// `vertices[vertex].column LIKE pattern`.
  struct LikeSelection {
    uint16_t vertex = 0;
    size_t column = 0;
    std::string pattern;
  };

  std::vector<Vertex> vertices;
  std::vector<Join> joins;
  std::vector<Selection> selections;
  std::vector<LikeSelection> like_selections;
};

/// The query. `joins` may form any connected shape; the KWS-S system only
/// ever produces trees, but the executor handles cycles too. `selections`
/// are constant filters the shell's SQL subset supports on top of the
/// KWS-S-generated class.
struct JoinNetworkQuery {
  std::vector<QueryVertex> vertices;
  std::vector<QueryJoin> joins;
  std::vector<QuerySelection> selections;
  std::vector<QueryLikeSelection> like_selections;

  /// Renders SELECT * SQL with per-keyword OR-of-LIKE predicates over the
  /// text columns of each bound instance, as in the paper's templates.
  /// Needs the database to know each table's text columns.
  StatusOr<std::string> ToSql(const Database& db) const;

  /// Checks tables, columns and alias uniqueness against `db`. When `plan`
  /// is non-null it must be empty; a valid query is compiled into it (an
  /// invalid one may leave it partly filled).
  Status Validate(const Database& db, JoinPlan* plan = nullptr) const;
};

/// Reconstructs a JoinNetworkQuery from a parsed SELECT statement. Mapping
/// of LIKE forms: a parenthesized OR group of LIKEs becomes the instance's
/// keyword (all branches must target one alias with one '%kw%' pattern — the
/// KWS-S template shape); a bare `col LIKE 'pattern'` conjunct becomes a
/// column-specific QueryLikeSelection with full pattern syntax. Errors on a
/// non-star select list, an OR group mixing aliases/keywords, or two
/// different keywords on one alias.
StatusOr<JoinNetworkQuery> FromSelectStatement(const SelectStatement& stmt,
                                               const Database& db);

}  // namespace kwsdbg

#endif  // KWSDBG_SQL_JOIN_NETWORK_H_
