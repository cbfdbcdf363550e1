#include "debugger/interactive_session.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/dblife.h"
#include "lattice/lattice_generator.h"
#include "test_util.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class InteractiveSessionTest : public testing::Test {
 protected:
  InteractiveSessionTest()
      : pl_(PrunedLattice::Build(
            *fx_.lattice,
            KeywordBinding({{"saffron", {fx_.color, 1}},
                            {"scented", {fx_.item, 1}},
                            {"candle", {fx_.ptype, 1}}}))),
        executor_(fx_.db.get()),
        evaluator_(fx_.db.get(), &executor_, &pl_, fx_.index.get()) {}

  NodeId Mtn() const { return pl_.mtns()[0]; }

  NodeId FindNode(const char* needle_a, const char* needle_b = nullptr,
                  size_t level = 0) const {
    for (NodeId id : pl_.retained()) {
      if (level != 0 && fx_.lattice->node(id).level != level) continue;
      const std::string name = fx_.NodeName(id);
      if (name.find(needle_a) == std::string::npos) continue;
      if (needle_b != nullptr && name.find(needle_b) == std::string::npos) {
        continue;
      }
      return id;
    }
    return kInvalidNode;
  }

  ToyFixture fx_;
  PrunedLattice pl_;
  Executor executor_;
  QueryEvaluator evaluator_;
};

TEST_F(InteractiveSessionTest, FreshSessionKnowsNothing) {
  InteractiveSession session(&pl_, &evaluator_);
  EXPECT_EQ(session.UnknownCount(), pl_.retained().size());
  EXPECT_FALSE(session.MtnResolved(Mtn()));
  EXPECT_TRUE(session.KnownMpans(Mtn()).empty());
}

TEST_F(InteractiveSessionTest, ProbePropagatesInference) {
  InteractiveSession session(&pl_, &evaluator_);
  // Probing the alive P1 ⋈ I1 classifies its descendants alive via R1.
  NodeId pi = FindNode("ProductType[1]", "Item[1]", 3 - 1);
  ASSERT_NE(pi, kInvalidNode);
  auto alive = session.Probe(pi);
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(*alive);
  EXPECT_EQ(session.StatusOf(pi), NodeStatus::kAlive);
  // P1 and I1 (its children) were inferred without SQL.
  EXPECT_LT(session.UnknownCount(), pl_.retained().size() - 1);
}

TEST_F(InteractiveSessionTest, RepeatProbeIsFree) {
  InteractiveSession session(&pl_, &evaluator_);
  NodeId pi = FindNode("ProductType[1]", "Item[1]", 2);
  ASSERT_NE(pi, kInvalidNode);
  ASSERT_TRUE(session.Probe(pi).ok());
  const size_t sql = evaluator_.sql_executed();
  ASSERT_TRUE(session.Probe(pi).ok());
  EXPECT_EQ(evaluator_.sql_executed(), sql);
}

TEST_F(InteractiveSessionTest, ManualSessionReachesPaperResult) {
  InteractiveSession session(&pl_, &evaluator_);
  // Probe the MTN first: dead.
  auto mtn_alive = session.Probe(Mtn());
  ASSERT_TRUE(mtn_alive.ok());
  EXPECT_FALSE(*mtn_alive);
  // Finish automatically; the MPANs must match the paper's q1 pair.
  auto sql = session.FinishAutomatically();
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(session.MtnResolved(Mtn()));
  std::vector<NodeId> mpans = session.KnownMpans(Mtn());
  ASSERT_EQ(mpans.size(), 2u);
}

TEST_F(InteractiveSessionTest, AssertionsInjectKnowledgeWithoutSql) {
  InteractiveSession session(&pl_, &evaluator_);
  NodeId ic = FindNode("Item[1]", "Color[1]", 2);
  ASSERT_NE(ic, kInvalidNode);
  // Developer knows no scented item has the saffron color.
  ASSERT_TRUE(session.AssertDead(ic).ok());
  EXPECT_EQ(session.StatusOf(ic), NodeStatus::kDead);
  // R2: the MTN above it is now known dead with zero SQL executed.
  EXPECT_EQ(session.StatusOf(Mtn()), NodeStatus::kDead);
  EXPECT_EQ(evaluator_.sql_executed(), 0u);
}

TEST_F(InteractiveSessionTest, ContradictoryAssertionRejected) {
  InteractiveSession session(&pl_, &evaluator_);
  NodeId pi = FindNode("ProductType[1]", "Item[1]", 2);
  ASSERT_TRUE(session.Probe(pi).ok());  // alive
  EXPECT_EQ(session.AssertDead(pi).code(), StatusCode::kFailedPrecondition);
  NodeId ic = FindNode("Item[1]", "Color[1]", 2);
  ASSERT_TRUE(session.Probe(ic).ok());  // dead
  EXPECT_EQ(session.AssertAlive(ic).code(), StatusCode::kFailedPrecondition);
}

TEST_F(InteractiveSessionTest, ProbeOutsideSearchSpaceRejected) {
  InteractiveSession session(&pl_, &evaluator_);
  // Find a lattice node that is not retained for this query.
  NodeId outside = kInvalidNode;
  for (NodeId id = 0; id < fx_.lattice->num_nodes(); ++id) {
    if (!pl_.IsRetained(id)) {
      outside = id;
      break;
    }
  }
  ASSERT_NE(outside, kInvalidNode);
  EXPECT_EQ(session.Probe(outside).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.AssertAlive(outside).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(InteractiveSessionTest, SuggestionsDriveSessionToCompletion) {
  InteractiveSession session(&pl_, &evaluator_);
  size_t steps = 0;
  while (true) {
    ProbeSuggestion s = session.SuggestProbe();
    if (s.node == kInvalidNode) break;
    EXPECT_GE(s.expected_gain, 0.0);
    EXPECT_FALSE(s.network.empty());
    ASSERT_TRUE(session.Probe(s.node).ok());
    ASSERT_LT(++steps, 100u) << "session failed to converge";
  }
  EXPECT_EQ(session.UnknownCount(), 0u);
  EXPECT_TRUE(session.MtnResolved(Mtn()));
  // The suggestion-driven session resolves everything with at most as many
  // SQL queries as retained nodes.
  EXPECT_LE(evaluator_.sql_executed(), pl_.retained().size());
}

TEST_F(InteractiveSessionTest, KnownMpansGrowMonotonically) {
  InteractiveSession session(&pl_, &evaluator_);
  ASSERT_TRUE(session.Probe(Mtn()).ok());  // dead
  size_t last = session.KnownMpans(Mtn()).size();
  while (session.UnknownCount() > 0) {
    ProbeSuggestion s = session.SuggestProbe();
    ASSERT_TRUE(session.Probe(s.node).ok());
    size_t now = session.KnownMpans(Mtn()).size();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_EQ(last, 2u);
}

TEST(InteractiveSessionDblifeTest, AgreesWithBatchSbhOnWorkload) {
  DblifeConfig config;
  config.num_persons = 60;
  config.num_publications = 100;
  config.num_conferences = 10;
  config.num_organizations = 12;
  config.num_topics = 10;
  auto ds = GenerateDblife(config);
  ASSERT_TRUE(ds.ok());
  LatticeConfig lconfig;
  lconfig.max_joins = 3;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(ds->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  InvertedIndex index = InvertedIndex::Build(*ds->db);
  KeywordBinder binder(&ds->schema, &index, 2, 3);
  auto sbh = MakeStrategy(TraversalKind::kScoreBased);
  for (const char* q : {"widom trio", "probabilistic data", "histograms"}) {
    for (const KeywordBinding& binding : binder.Bind(q).interpretations) {
      PrunedLattice pl = PrunedLattice::Build(**lattice, binding);
      if (pl.mtns().empty()) continue;
      // Batch result.
      Executor batch_exec(ds->db.get());
      QueryEvaluator batch_eval(ds->db.get(), &batch_exec, &pl, &index);
      auto batch = sbh->Run(pl, &batch_eval);
      ASSERT_TRUE(batch.ok());
      // Fully driven interactive session.
      Executor exec(ds->db.get());
      QueryEvaluator eval(ds->db.get(), &exec, &pl, &index);
      InteractiveSession session(&pl, &eval);
      auto sql = session.FinishAutomatically();
      ASSERT_TRUE(sql.ok());
      // Both score with one SBH state, so they issue the same queries.
      EXPECT_EQ(*sql, batch->stats.sql_queries) << q;
      for (const MtnOutcome& outcome : batch->outcomes) {
        EXPECT_TRUE(session.MtnResolved(outcome.mtn));
        EXPECT_EQ(session.StatusOf(outcome.mtn) == NodeStatus::kAlive,
                  outcome.alive);
        if (!outcome.alive) {
          std::vector<NodeId> mpans = session.KnownMpans(outcome.mtn);
          std::sort(mpans.begin(), mpans.end());
          EXPECT_EQ(mpans, outcome.mpans) << q;
        }
      }
    }
  }
}

}  // namespace
}  // namespace kwsdbg
