// Executor property tests on randomized DBLife queries: results are
// independent of the order the query lists its instances and joins, limits
// are prefixes of the full result, existence checks agree with full
// enumeration, and both equal an index-free nested-loop join.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datasets/dblife.h"
#include "sql/executor.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace {

std::vector<std::string> SortedRowStrings(const ResultSet& rs,
                                          const std::vector<int>& col_order) {
  // col_order maps output columns to a canonical order so permuted vertex
  // lists stay comparable.
  std::vector<std::string> out;
  for (const Tuple& row : rs.rows) {
    std::string s;
    for (int c : col_order) {
      s += row[static_cast<size_t>(c)].ToString();
      s += "|";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Builds a 3-instance path query Person - writes - Publication with random
/// keywords, returning it plus a vertex permutation of it.
std::pair<JoinNetworkQuery, JoinNetworkQuery> PathQueryAndPermutation(
    Rng* rng) {
  const char* person_kws[] = {"", "widom", "gray", "das"};
  const char* pub_kws[] = {"", "data", "probabilistic", "histograms"};
  JoinNetworkQuery q;
  q.vertices = {{"Person", "P", person_kws[rng->Uniform(4)]},
                {"writes", "w", ""},
                {"Publication", "B", pub_kws[rng->Uniform(4)]}};
  q.joins = {{1, "person_id", 0, "id"}, {1, "publication_id", 2, "id"}};

  JoinNetworkQuery perm;
  perm.vertices = {q.vertices[2], q.vertices[0], q.vertices[1]};
  perm.joins = {{2, "publication_id", 0, "id"}, {2, "person_id", 1, "id"}};
  return {q, perm};
}

/// A random entity - relationship - entity path over the DBLife schema,
/// extended by a second hop half the time, with random (often empty)
/// keywords on the entity instances.
JoinNetworkQuery RandomDblifePath(Rng* rng) {
  struct Link {
    const char* table;
    const char* columns[2];
    const char* entities[2];
  };
  static const Link kLinks[] = {
      {"writes", {"person_id", "publication_id"}, {"Person", "Publication"}},
      {"coauthor_of", {"person1_id", "person2_id"}, {"Person", "Person"}},
      {"serves_on", {"person_id", "conference_id"}, {"Person", "Conference"}},
      {"affiliated_with",
       {"person_id", "organization_id"},
       {"Person", "Organization"}},
      {"interested_in", {"person_id", "topic_id"}, {"Person", "Topic"}},
      {"published_in",
       {"publication_id", "conference_id"},
       {"Publication", "Conference"}},
      {"about_topic", {"publication_id", "topic_id"}, {"Publication", "Topic"}},
  };
  static const char* kKeywords[] = {"",      "",      "",     "data",
                                    "widom", "gray",  "das",  "query",
                                    "vldb",  "stanford", "histograms"};
  JoinNetworkQuery q;
  auto add_vertex = [&](const std::string& table, bool entity) {
    const std::string keyword = entity ? kKeywords[rng->Uniform(11)] : "";
    std::string alias = "v";
    alias += std::to_string(q.vertices.size());
    q.vertices.push_back({table, alias, keyword});
    return static_cast<uint16_t>(q.vertices.size() - 1);
  };
  // Adds `link` entered from its side `from`; returns the far entity.
  auto add_hop = [&](const Link& link, size_t from, uint16_t entity) {
    const uint16_t rel = add_vertex(link.table, /*entity=*/false);
    const uint16_t far = add_vertex(link.entities[1 - from], /*entity=*/true);
    q.joins.push_back({rel, link.columns[from], entity, "id"});
    q.joins.push_back({rel, link.columns[1 - from], far, "id"});
    return far;
  };
  const Link& first = kLinks[rng->Uniform(7)];
  const size_t from = rng->Uniform(2);
  uint16_t end = add_vertex(first.entities[from], /*entity=*/true);
  end = add_hop(first, from, end);
  if (rng->Bernoulli(0.5)) {
    const std::string& at = q.vertices[end].table;
    std::vector<std::pair<const Link*, size_t>> next;
    for (const Link& link : kLinks) {
      for (size_t side = 0; side < 2; ++side) {
        if (at == link.entities[side]) next.emplace_back(&link, side);
      }
    }
    const auto& [link, side] = next[rng->Uniform(next.size())];
    add_hop(*link, side, end);
  }
  return q;
}

/// Index-free nested-loop join: instances are placed in query order, each
/// ranging over its keyword-matching rows (case-insensitive containment in
/// any text column), and a combination is kept when every join predicate
/// between placed instances holds under SqlEquals. Rows concatenate the
/// matched tuples in vertex order, as Execute's do; returned sorted.
std::vector<std::string> NestedLoopRows(const Database& db,
                                        const JoinNetworkQuery& q) {
  const size_t n = q.vertices.size();
  std::vector<const Table*> tables(n);
  std::vector<std::vector<uint32_t>> rows(n);
  for (size_t v = 0; v < n; ++v) {
    tables[v] = db.FindTable(q.vertices[v].table);
    const std::string keyword = ToLower(q.vertices[v].keyword);
    for (uint32_t r = 0; r < tables[v]->num_rows(); ++r) {
      bool match = keyword.empty();
      for (size_t c : tables[v]->schema().TextColumnIndices()) {
        const Value& cell = tables[v]->at(r, c);
        match = match || (!cell.is_null() &&
                          ToLower(cell.AsString()).find(keyword) !=
                              std::string::npos);
      }
      if (match) rows[v].push_back(r);
    }
  }
  struct Predicate {
    size_t left, left_column, right, right_column;
  };
  std::vector<Predicate> predicates;
  for (const QueryJoin& j : q.joins) {
    predicates.push_back(
        {j.left, *tables[j.left]->schema().ColumnIndex(j.left_column),
         j.right, *tables[j.right]->schema().ColumnIndex(j.right_column)});
  }
  std::vector<uint32_t> pick(n);
  std::vector<std::string> out;
  std::function<void(size_t)> extend = [&](size_t d) {
    if (d == n) {
      std::string s;
      for (size_t v = 0; v < n; ++v) {
        for (const Value& cell : tables[v]->row(pick[v])) {
          s += cell.ToString() + "|";
        }
      }
      out.push_back(std::move(s));
      return;
    }
    for (uint32_t r : rows[d]) {
      pick[d] = r;
      bool ok = true;
      for (const Predicate& p : predicates) {
        if (std::max(p.left, p.right) != d) continue;
        ok = ok && tables[p.left]->at(pick[p.left], p.left_column).SqlEquals(
                       tables[p.right]->at(pick[p.right], p.right_column));
      }
      if (ok) extend(d + 1);
    }
  };
  extend(0);
  std::sort(out.begin(), out.end());
  return out;
}

/// Item.team_id over 64 rows holds 6 ids with every 7th cell NULL; Team
/// repeats id 2, has a NULL id, and ends in 33 teams no item references.
/// An unbound Team vertex (40 rows) is then the smaller side: it roots the
/// join with a frame above the executor's 32-probe prefetch threshold, and
/// the next depth probes Item on its key.
std::unique_ptr<Database> BuildNullDuplicateKeyDb() {
  auto db = std::make_unique<Database>();
  auto item = db->CreateTable("Item", Schema({{"id", DataType::kInt64},
                                              {"name", DataType::kString},
                                              {"team_id", DataType::kInt64}}));
  KWSDBG_CHECK(item.ok());
  for (int64_t i = 0; i < 64; ++i) {
    const Value key = i % 7 == 0 ? Value::Null() : Value(i % 6);
    KWSDBG_CHECK((*item)->AppendRow({Value(i),
                                     Value("alpha item " + std::to_string(i)),
                                     key})
                     .ok());
  }
  auto team = db->CreateTable("Team", Schema({{"id", DataType::kInt64},
                                              {"label", DataType::kString}}));
  KWSDBG_CHECK(team.ok());
  const std::pair<Value, const char*> teams[] = {
      {Value(int64_t{0}), "beta"},   {Value(int64_t{1}), "gamma"},
      {Value(int64_t{2}), "beta"},   {Value(int64_t{2}), "beta twin"},
      {Value(int64_t{3}), "gamma"},  {Value(int64_t{4}), "Beta"},
      {Value::Null(), "beta orphan"}};
  for (const auto& [id, label] : teams) {
    KWSDBG_CHECK((*team)->AppendRow({id, Value(label)}).ok());
  }
  for (int64_t id = 6; id < 39; ++id) {
    KWSDBG_CHECK(
        (*team)->AppendRow({Value(id), Value("delta " + std::to_string(id))})
            .ok());
  }
  return db;
}

/// Checks one query: sorted Execute rows and IsNonEmpty against the
/// nested-loop oracle.
void ExpectMatchesOracle(const Database& db, Executor* executor,
                         const JoinNetworkQuery& q) {
  const std::vector<std::string> expect = NestedLoopRows(db, q);
  auto rs = executor->Execute(q);
  auto exists = executor->IsNonEmpty(q);
  ASSERT_TRUE(rs.ok() && exists.ok());
  std::vector<int> identity(rs->columns.size());
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<int>(i);
  }
  std::string shape;
  for (const QueryVertex& v : q.vertices) {
    shape += v.table + "[" + v.keyword + "] ";
  }
  EXPECT_EQ(SortedRowStrings(*rs, identity), expect) << shape;
  EXPECT_EQ(*exists, !expect.empty()) << shape;
}

class ExecutorPropertyTest : public testing::TestWithParam<uint64_t> {
 protected:
  static const DblifeDataset& Dataset() {
    static const DblifeDataset* ds = [] {
      DblifeConfig config;
      config.num_persons = 120;
      config.num_publications = 200;
      config.num_conferences = 10;
      config.num_organizations = 15;
      config.num_topics = 12;
      auto result = GenerateDblife(config);
      KWSDBG_CHECK(result.ok());
      return new DblifeDataset(std::move(*result));
    }();
    return *ds;
  }
};

TEST_P(ExecutorPropertyTest, VertexOrderIrrelevant) {
  const DblifeDataset& ds = Dataset();
  Executor executor(ds.db.get());
  Rng rng(GetParam());
  const size_t person_cols = ds.db->FindTable("Person")->schema().num_columns();
  const size_t writes_cols = ds.db->FindTable("writes")->schema().num_columns();
  const size_t pub_cols =
      ds.db->FindTable("Publication")->schema().num_columns();
  for (int iter = 0; iter < 10; ++iter) {
    auto [q, perm] = PathQueryAndPermutation(&rng);
    auto rs1 = executor.Execute(q);
    auto rs2 = executor.Execute(perm);
    ASSERT_TRUE(rs1.ok() && rs2.ok());
    // Canonical column order: Person cols, writes cols, Publication cols.
    std::vector<int> order1, order2;
    for (size_t i = 0; i < person_cols + writes_cols + pub_cols; ++i) {
      order1.push_back(static_cast<int>(i));
    }
    // perm layout: Publication, Person, writes.
    for (size_t i = 0; i < person_cols; ++i) {
      order2.push_back(static_cast<int>(pub_cols + i));
    }
    for (size_t i = 0; i < writes_cols; ++i) {
      order2.push_back(static_cast<int>(pub_cols + person_cols + i));
    }
    for (size_t i = 0; i < pub_cols; ++i) {
      order2.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(SortedRowStrings(*rs1, order1), SortedRowStrings(*rs2, order2));
  }
}

TEST_P(ExecutorPropertyTest, ExistsAgreesWithEnumeration) {
  const DblifeDataset& ds = Dataset();
  Executor executor(ds.db.get());
  Rng rng(GetParam() * 31 + 7);
  for (int iter = 0; iter < 10; ++iter) {
    auto [q, perm] = PathQueryAndPermutation(&rng);
    (void)perm;
    auto rs = executor.Execute(q);
    auto exists = executor.IsNonEmpty(q);
    ASSERT_TRUE(rs.ok() && exists.ok());
    EXPECT_EQ(*exists, !rs->rows.empty());
  }
}

TEST_P(ExecutorPropertyTest, LimitIsPrefixSized) {
  const DblifeDataset& ds = Dataset();
  Executor executor(ds.db.get());
  Rng rng(GetParam() * 97 + 3);
  for (int iter = 0; iter < 10; ++iter) {
    auto [q, perm] = PathQueryAndPermutation(&rng);
    (void)perm;
    auto full = executor.Execute(q);
    ASSERT_TRUE(full.ok());
    const size_t limit = 1 + rng.Uniform(5);
    auto limited = executor.Execute(q, limit);
    ASSERT_TRUE(limited.ok());
    EXPECT_EQ(limited->rows.size(), std::min(limit, full->rows.size()));
  }
}

TEST_P(ExecutorPropertyTest, MatchesNestedLoopOracle) {
  const DblifeDataset& ds = Dataset();
  const InvertedIndex index = InvertedIndex::Build(*ds.db);
  Executor executor(ds.db.get());
  executor.RegisterTextIndex(&index);
  Rng rng(GetParam() * 13 + 5);
  for (int iter = 0; iter < 12; ++iter) {
    ExpectMatchesOracle(*ds.db, &executor, RandomDblifePath(&rng));
  }

  const std::unique_ptr<Database> db = BuildNullDuplicateKeyDb();
  const InvertedIndex keys_index = InvertedIndex::Build(*db);
  Executor keys_executor(db.get());
  keys_executor.RegisterTextIndex(&keys_index);
  const char* item_keywords[] = {"alpha", "", "item"};
  const char* team_keywords[] = {"beta", "", "gamma", "twin"};
  for (const char* item_kw : item_keywords) {
    for (const char* team_kw : team_keywords) {
      JoinNetworkQuery q;
      q.vertices = {{"Item", "I", item_kw}, {"Team", "T", team_kw}};
      q.joins = {{0, "team_id", 1, "id"}};
      ExpectMatchesOracle(*db, &keys_executor, q);
      // Same join listed from the other side.
      JoinNetworkQuery swapped;
      swapped.vertices = {q.vertices[1], q.vertices[0]};
      swapped.joins = {{0, "id", 1, "team_id"}};
      ExpectMatchesOracle(*db, &keys_executor, swapped);
    }
  }
  // The 40-row root Team frame, whose child probes Item on its key, ran
  // the prefetch window.
  EXPECT_GT(keys_executor.stats().prefetch_batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         testing::Values(1, 17, 123, 999));

}  // namespace
}  // namespace kwsdbg
