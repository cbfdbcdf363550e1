// Property test: all five traversal strategies and the RE oracle produce
// identical answer/non-answer classifications and identical MPAN sets, for
// every interpretation of randomized keyword queries over randomized small
// DBLife instances.
#include <gtest/gtest.h>

#include "baselines/return_everything.h"
#include "common/rng.h"
#include "datasets/dblife.h"
#include "kws/keyword_binding.h"
#include "kws/pruned_lattice.h"
#include "lattice/lattice_generator.h"
#include "sql/executor.h"
#include "test_util.h"
#include "text/inverted_index.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

class StrategyAgreementTest : public testing::TestWithParam<uint64_t> {};

TEST_P(StrategyAgreementTest, AllStrategiesMatchOracleOnDblife) {
  DblifeConfig config;
  config.seed = GetParam();
  config.num_persons = 60;
  config.num_publications = 120;
  config.num_conferences = 10;
  config.num_organizations = 15;
  config.num_topics = 12;
  auto ds = GenerateDblife(config);
  ASSERT_TRUE(ds.ok());
  LatticeConfig lconfig;
  lconfig.max_joins = 4;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(ds->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  InvertedIndex index = InvertedIndex::Build(*ds->db);
  KeywordBinder binder(&ds->schema, &index, 2, /*max_interpretations=*/4);

  const char* queries[] = {"widom trio",        "gray sigmod",
                           "probabilistic data", "histograms",
                           "washington data",    "dewitt tutorial"};
  auto oracle = MakeReturnEverything();
  for (const char* q : queries) {
    BindingResult binding_result = binder.Bind(q);
    for (const KeywordBinding& binding : binding_result.interpretations) {
      PrunedLattice pl = PrunedLattice::Build(**lattice, binding);
      if (pl.mtns().empty()) continue;

      Executor oracle_exec(ds->db.get());
      QueryEvaluator oracle_eval(ds->db.get(), &oracle_exec, &pl, &index);
      auto expected = oracle->Run(pl, &oracle_eval);
      ASSERT_TRUE(expected.ok());

      for (TraversalKind kind : AllTraversalKinds()) {
        auto strategy = MakeStrategy(kind);
        Executor executor(ds->db.get());
        QueryEvaluator evaluator(ds->db.get(), &executor, &pl, &index);
        auto got = strategy->Run(pl, &evaluator);
        ASSERT_TRUE(got.ok()) << strategy->name();
        EXPECT_EQ(testutil::Summarize(*got), testutil::Summarize(*expected))
            << "query '" << q << "', strategy " << strategy->name()
            << ", binding " << binding.ToString(ds->schema);
        // The strategies that share evaluations across MTNs never execute
        // more SQL than the evaluate-everything oracle. BU/TD (no reuse)
        // legitimately can: they re-evaluate shared descendants per MTN —
        // exactly the redundancy Fig. 11 quantifies.
        if (kind == TraversalKind::kBottomUpWithReuse ||
            kind == TraversalKind::kTopDownWithReuse ||
            kind == TraversalKind::kScoreBased) {
          EXPECT_LE(got->stats.sql_queries, expected->stats.sql_queries)
              << strategy->name();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAgreementTest,
                         testing::Values(7, 21, 1001));

}  // namespace
}  // namespace kwsdbg
