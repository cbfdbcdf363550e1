// Strategy behaviour on the paper's Example 1: q1 and q2 are non-answers
// whose MPANs are exactly the ones the paper lists, under every strategy.
#include <gtest/gtest.h>

#include "baselines/return_everything.h"
#include "test_util.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

using testutil::ToyFixture;

class StrategiesTest : public testing::Test {
 protected:
  ToyFixture fx_;

  KeywordBinding Q1Binding() {  // saffron as a color
    return KeywordBinding({{"saffron", {fx_.color, 1}},
                           {"scented", {fx_.item, 1}},
                           {"candle", {fx_.ptype, 1}}});
  }
  KeywordBinding Q2Binding() {  // saffron as a scent (Attribute)
    return KeywordBinding({{"saffron", {fx_.attr, 1}},
                           {"scented", {fx_.item, 1}},
                           {"candle", {fx_.ptype, 1}}});
  }
};

TEST_F(StrategiesTest, Q1NonAnswerMpansMatchPaperUnderEveryStrategy) {
  for (TraversalKind kind : AllTraversalKinds()) {
    auto strategy = MakeStrategy(kind);
    TraversalResult r = fx_.Run(strategy.get(), Q1Binding());
    ASSERT_EQ(r.outcomes.size(), 1u) << strategy->name();
    EXPECT_FALSE(r.outcomes[0].alive) << strategy->name();
    // Paper: MPANs of q1 are P_candle ⋈ I_scented and C_saffron.
    std::set<std::string> names = fx_.MpanNames(r.outcomes[0]);
    ASSERT_EQ(names.size(), 2u) << strategy->name();
    bool has_pi = false, has_c = false;
    for (const std::string& n : names) {
      if (n == "Color[1]") has_c = true;
      if (n.find("ProductType[1]") != std::string::npos &&
          n.find("Item[1]") != std::string::npos) {
        has_pi = true;
      }
    }
    EXPECT_TRUE(has_pi) << strategy->name();
    EXPECT_TRUE(has_c) << strategy->name();
  }
}

TEST_F(StrategiesTest, Q2NonAnswerMpansMatchPaperUnderEveryStrategy) {
  for (TraversalKind kind : AllTraversalKinds()) {
    auto strategy = MakeStrategy(kind);
    TraversalResult r = fx_.Run(strategy.get(), Q2Binding());
    ASSERT_EQ(r.outcomes.size(), 1u);
    EXPECT_FALSE(r.outcomes[0].alive);
    // Paper: MPANs of q2 are P_candle ⋈ I_scented and I_scented ⋈ A_saffron.
    std::set<std::string> names = fx_.MpanNames(r.outcomes[0]);
    ASSERT_EQ(names.size(), 2u) << strategy->name();
    bool has_pi = false, has_ia = false;
    for (const std::string& n : names) {
      if (n.find("ProductType[1]") != std::string::npos &&
          n.find("Item[1]") != std::string::npos) {
        has_pi = true;
      }
      if (n.find("Attribute[1]") != std::string::npos &&
          n.find("Item[1]") != std::string::npos) {
        has_ia = true;
      }
    }
    EXPECT_TRUE(has_pi) << strategy->name();
    EXPECT_TRUE(has_ia) << strategy->name();
  }
}

TEST_F(StrategiesTest, AliveMtnHasNoMpans) {
  // "red candle" with red->Color: alive (items 3, 4 are red candles).
  KeywordBinding binding(
      {{"red", {fx_.color, 1}}, {"candle", {fx_.ptype, 1}}});
  for (TraversalKind kind : AllTraversalKinds()) {
    auto strategy = MakeStrategy(kind);
    TraversalResult r = fx_.Run(strategy.get(), binding);
    ASSERT_EQ(r.outcomes.size(), 1u);
    EXPECT_TRUE(r.outcomes[0].alive) << strategy->name();
    EXPECT_TRUE(r.outcomes[0].mpans.empty()) << strategy->name();
  }
}

TEST_F(StrategiesTest, TopDownCheaperWhenMtnAlive) {
  KeywordBinding binding(
      {{"red", {fx_.color, 1}}, {"candle", {fx_.ptype, 1}}});
  auto td = MakeStrategy(TraversalKind::kTopDown);
  auto bu = MakeStrategy(TraversalKind::kBottomUp);
  TraversalResult td_r = fx_.Run(td.get(), binding);
  TraversalResult bu_r = fx_.Run(bu.get(), binding);
  // TD evaluates the alive MTN once and infers everything below (R1); BU
  // climbs the whole sub-lattice.
  EXPECT_EQ(td_r.stats.sql_queries, 1u);
  EXPECT_GT(bu_r.stats.sql_queries, td_r.stats.sql_queries);
}

TEST_F(StrategiesTest, ReuseVariantsNeverExecuteMore) {
  for (const KeywordBinding& binding :
       {Q1Binding(), Q2Binding(),
        KeywordBinding({{"red", {fx_.color, 1}}, {"candle", {fx_.ptype, 1}}}),
        KeywordBinding({{"red", {fx_.item, 1}}, {"candle", {fx_.item, 2}}})}) {
    auto bu = MakeStrategy(TraversalKind::kBottomUp);
    auto buwr = MakeStrategy(TraversalKind::kBottomUpWithReuse);
    auto td = MakeStrategy(TraversalKind::kTopDown);
    auto tdwr = MakeStrategy(TraversalKind::kTopDownWithReuse);
    EXPECT_LE(fx_.Run(buwr.get(), binding).stats.sql_queries,
              fx_.Run(bu.get(), binding).stats.sql_queries);
    EXPECT_LE(fx_.Run(tdwr.get(), binding).stats.sql_queries,
              fx_.Run(td.get(), binding).stats.sql_queries);
  }
}

TEST_F(StrategiesTest, SbhNeverExecutesMoreThanReturnEverything) {
  auto re = MakeReturnEverything();
  for (const KeywordBinding& binding : {Q1Binding(), Q2Binding()}) {
    for (double pa : {0.1, 0.5, 0.9}) {
      auto sbh = MakeStrategy(TraversalKind::kScoreBased, SbhOptions{pa});
      EXPECT_LE(fx_.Run(sbh.get(), binding).stats.sql_queries,
                fx_.Run(re.get(), binding).stats.sql_queries)
          << "pa=" << pa;
    }
  }
}

TEST_F(StrategiesTest, BaseNodesCostNoSql) {
  // A single-keyword query whose only MTN is a base node: zero SQL.
  KeywordBinding binding({{"vanilla", {fx_.item, 1}}});
  for (TraversalKind kind : AllTraversalKinds()) {
    auto strategy = MakeStrategy(kind);
    TraversalResult r = fx_.Run(strategy.get(), binding);
    ASSERT_EQ(r.outcomes.size(), 1u);
    EXPECT_TRUE(r.outcomes[0].alive);
    EXPECT_EQ(r.stats.sql_queries, 0u) << strategy->name();
  }
}

TEST_F(StrategiesTest, StrategyNamesMatchPaperLabels) {
  EXPECT_EQ(MakeStrategy(TraversalKind::kBottomUp)->name(), "BU");
  EXPECT_EQ(MakeStrategy(TraversalKind::kTopDown)->name(), "TD");
  EXPECT_EQ(MakeStrategy(TraversalKind::kBottomUpWithReuse)->name(), "BUWR");
  EXPECT_EQ(MakeStrategy(TraversalKind::kTopDownWithReuse)->name(), "TDWR");
  EXPECT_EQ(MakeStrategy(TraversalKind::kScoreBased)->name(), "SBH");
  EXPECT_EQ(TraversalKindName(TraversalKind::kScoreBased), "SBH");
}

}  // namespace
}  // namespace kwsdbg
