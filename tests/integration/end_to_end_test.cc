// Whole-pipeline integration tests: the scenarios the examples demonstrate,
// asserted end to end — the merchandising fix loop, artifact persistence
// equivalence, the JSON pipeline, and cross-strategy report stability on
// the full workload.
#include <gtest/gtest.h>

#include <sstream>

#include "common/counter_table.h"
#include "common/logging.h"
#include "datasets/dblife.h"
#include "datasets/ecommerce.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "debugger/report_json.h"
#include "lattice/lattice_generator.h"
#include "lattice/lattice_io.h"
#include "storage/csv.h"

namespace kwsdbg {
namespace {

// The paper's motivating loop (Sec. 1): non-answer -> debug -> vocabulary
// fix -> answers, with no item rows touched.
TEST(EndToEndTest, MerchandisingFixLoopResolvesNonAnswer) {
  EcommerceConfig config;
  config.num_items = 300;
  auto ds = GenerateEcommerce(config);
  ASSERT_TRUE(ds.ok());
  LatticeConfig lconfig;
  lconfig.max_joins = 2;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(ds->schema, lconfig);
  ASSERT_TRUE(lattice.ok());

  auto count_color_interpretation_answers = [&](const char* query) {
    InvertedIndex index = InvertedIndex::Build(*ds->db);
    NonAnswerDebugger debugger(ds->db.get(), lattice->get(), &index);
    auto report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok());
    // Find the interpretation where "saffron" is a Color.
    for (const auto& interp : report->interpretations) {
      if (interp.binding.find("saffron->Color[1]") != std::string::npos) {
        return std::make_pair(interp.answers.size(),
                              interp.non_answers.size());
      }
    }
    return std::make_pair(size_t{0}, size_t{0});
  };

  // Before: "saffron" is not in the color vocabulary, so there is no
  // saffron-as-a-color interpretation at all (the index never maps it to
  // Color). After the synonym fix there is, and it has answers.
  auto [before_answers, before_non] =
      count_color_interpretation_answers("saffron candle");
  EXPECT_EQ(before_answers + before_non, 0u);

  auto added = AddColorSynonym(ds->db.get(), "yellow", "saffron");
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(*added);

  auto [after_answers, after_non] =
      count_color_interpretation_answers("saffron candle");
  EXPECT_GT(after_answers, 0u);
  EXPECT_EQ(after_non, 0u);
}

// Persisted artifacts (CSV tables + saved lattice) produce byte-identical
// debugging reports to the fresh pipeline.
TEST(EndToEndTest, PersistedArtifactsGiveIdenticalReports) {
  DblifeConfig config;
  config.num_persons = 80;
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

  // Fresh report.
  InvertedIndex index = InvertedIndex::Build(*ds->db);
  NonAnswerDebugger fresh(ds->db.get(), lattice->get(), &index);
  auto fresh_report = fresh.Debug("widom trio");
  ASSERT_TRUE(fresh_report.ok());

  // Round-trip the tables through CSV and the lattice through its format.
  Database db2;
  for (const std::string& name : ds->db->TableNames()) {
    std::ostringstream out;
    ASSERT_TRUE(WriteTableCsv(*ds->db->FindTable(name), &out).ok());
    std::istringstream in(out.str());
    auto table = ReadTableCsv(name, &in);
    ASSERT_TRUE(table.ok()) << name;
    ASSERT_TRUE(db2.AddTable(std::make_unique<Table>(std::move(*table))).ok());
  }
  std::ostringstream lat_out;
  ASSERT_TRUE(SaveLattice(**lattice, &lat_out).ok());
  std::istringstream lat_in(lat_out.str());
  auto lattice2 = LoadLattice(ds->schema, &lat_in);
  ASSERT_TRUE(lattice2.ok());

  InvertedIndex index2 = InvertedIndex::Build(db2);
  NonAnswerDebugger loaded(&db2, lattice2->get(), &index2);
  auto loaded_report = loaded.Debug("widom trio");
  ASSERT_TRUE(loaded_report.ok());

  // Node ids may differ between the lattices, but the rendered reports —
  // networks, SQL, counts — must match exactly (timings are wall-clock
  // noise; blank them first).
  auto strip_times = [](DebugReport* report) {
    report->bind_millis = 0;
    report->debug_millis = 0;
    for (auto& interp : report->interpretations) {
      TraversalStats& stats = interp.traversal_stats;
#define KWSDBG_STRIP_MILLIS(name, kind, doc) \
  if (CounterKind::kind == CounterKind::kMillis) stats.name = 0;
      KWSDBG_TRAVERSAL_COUNTERS(KWSDBG_STRIP_MILLIS)
#undef KWSDBG_STRIP_MILLIS
      interp.prune_stats.prune_millis = 0;
      interp.prune_stats.mtn_millis = 0;
    }
  };
  strip_times(&*fresh_report);
  strip_times(&*loaded_report);
  EXPECT_EQ(DebugReportToJson(*fresh_report),
            DebugReportToJson(*loaded_report));
}

// The JSON pipeline carries the full workload without structural surprises.
TEST(EndToEndTest, WorkloadJsonReportsAreWellFormed) {
  DblifeConfig config;
  config.num_persons = 80;
  config.num_publications = 120;
  config.num_conferences = 10;
  config.num_organizations = 15;
  config.num_topics = 12;
  auto ds = GenerateDblife(config);
  ASSERT_TRUE(ds.ok());
  LatticeConfig lconfig;
  lconfig.max_joins = 3;
  lconfig.num_keyword_copies = 3;
  auto lattice = LatticeGenerator::Generate(ds->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  InvertedIndex index = InvertedIndex::Build(*ds->db);
  NonAnswerDebugger debugger(ds->db.get(), lattice->get(), &index);
  for (const WorkloadQuery& q : PaperWorkload()) {
    auto report = debugger.Debug(q.text);
    ASSERT_TRUE(report.ok()) << q.id;
    std::string json = DebugReportToJson(*report);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"interpretations\""), std::string::npos) << q.id;
  }
}

// Strategies are interchangeable at the facade level: the rendered report
// is identical whichever traversal produced it.
TEST(EndToEndTest, ReportsAreStrategyInvariant) {
  DblifeConfig config;
  config.num_persons = 60;
  config.num_publications = 100;
  config.num_conferences = 10;
  config.num_organizations = 12;
  config.num_topics = 10;
  auto ds = GenerateDblife(config);
  ASSERT_TRUE(ds.ok());
  LatticeConfig lconfig;
  lconfig.max_joins = 4;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(ds->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  InvertedIndex index = InvertedIndex::Build(*ds->db);

  auto render = [&](TraversalKind kind, const std::string& query) {
    DebuggerOptions options;
    options.strategy = kind;
    NonAnswerDebugger debugger(ds->db.get(), lattice->get(), &index,
                               options);
    auto report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok());
    // Blank out the stats (they legitimately differ per strategy).
    report->bind_millis = 0;
    report->debug_millis = 0;
    for (auto& interp : report->interpretations) {
      interp.traversal_stats = TraversalStats{};
      interp.prune_stats.prune_millis = 0;
      interp.prune_stats.mtn_millis = 0;
    }
    return DebugReportToJson(*report);
  };

  for (const char* q : {"widom trio", "agrawal chaudhuri das"}) {
    const std::string reference = render(TraversalKind::kScoreBased, q);
    for (TraversalKind kind : AllTraversalKinds()) {
      EXPECT_EQ(render(kind, q), reference)
          << q << " / " << TraversalKindName(kind);
    }
  }
}

}  // namespace
}  // namespace kwsdbg
