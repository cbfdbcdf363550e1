// Robustness sweep: the lexer/parser must return a Status — never crash,
// hang, or accept garbage silently — on randomized token soup, and must
// accept every statement produced by its own writer (generative round-trip).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/parser.h"

namespace kwsdbg {
namespace {

std::string RandomSoup(Rng* rng, size_t max_tokens) {
  const char* pieces[] = {"SELECT", "FROM",  "WHERE", "AND", "OR",   "LIKE",
                          "AS",     "*",     ",",     ".",   "=",    "(",
                          ")",      ";",     "t1",    "col", "'x'",  "42",
                          "3.14",   "'it''s'", "_id", "%",   "'%a%'", "\""};
  std::string out;
  const size_t n = 1 + rng->Uniform(max_tokens);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += " ";
    out += pieces[rng->Uniform(std::size(pieces))];
  }
  return out;
}

class ParserFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, NeverCrashesOnTokenSoup) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    std::string soup = RandomSoup(&rng, 24);
    auto result = ParseSql(soup);
    if (result.ok()) {
      // Whatever parsed must re-render and re-parse to the same text.
      auto again = ParseSql(result->ToSql());
      ASSERT_TRUE(again.ok()) << soup << " -> " << result->ToSql();
      EXPECT_EQ(result->ToSql(), again->ToSql());
    }
  }
}

TEST_P(ParserFuzzTest, GeneratedStatementsAlwaysParse) {
  Rng rng(GetParam() * 7919 + 1);
  const char* tables[] = {"Item", "Color", "ProductType"};
  const char* columns[] = {"id", "name", "color"};
  auto alias = [](size_t i) {
    std::string a = "a";
    a += std::to_string(i);
    return a;
  };
  for (int iter = 0; iter < 200; ++iter) {
    SelectStatement stmt;
    stmt.select_all = true;
    const size_t nt = 1 + rng.Uniform(3);
    for (size_t i = 0; i < nt; ++i) {
      stmt.from.push_back(FromItem{tables[rng.Uniform(3)], alias(i)});
    }
    const size_t np = rng.Uniform(4);
    for (size_t i = 0; i < np; ++i) {
      ColumnRef ref{alias(rng.Uniform(nt)), columns[rng.Uniform(3)]};
      switch (rng.Uniform(4)) {
        case 0:
          stmt.where.emplace_back(JoinPredicate{
              ref, ColumnRef{alias(rng.Uniform(nt)), "id"}});
          break;
        case 1:
          stmt.where.emplace_back(LikePredicate{ref, "%x%"});
          break;
        case 2:
          stmt.where.emplace_back(ConstantPredicate{ref, true, "o'brien"});
          break;
        default: {
          OrLikes ors;
          ors.likes.push_back(LikePredicate{ref, "%y%"});
          ors.likes.push_back(LikePredicate{ref, "%y%"});
          stmt.where.emplace_back(std::move(ors));
        }
      }
    }
    const std::string sql = stmt.ToSql();
    auto parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok()) << sql << "\n" << parsed.status().ToString();
    EXPECT_EQ(parsed->ToSql(), sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         testing::Values(1, 2, 3, 99, 424242));

}  // namespace
}  // namespace kwsdbg
