// Counter flow: every row of the per-run counter table (common/
// counter_table.h) travels from the executor through TraversalStats into
// DebugReport, ServiceStats and both JSON writers. The tests walk the table
// instead of naming counters, so a new row is covered without a new line.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/counter_table.h"
#include "datasets/toy_product_db.h"
#include "debugger/non_answer_debugger.h"
#include "debugger/report_json.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace {

const std::vector<std::string>& TableNames() {
  static const std::vector<std::string> kNames = {
#define KWSDBG_COUNTER_NAME(name, kind, doc) #name,
      KWSDBG_TRAVERSAL_COUNTERS(KWSDBG_COUNTER_NAME)
#undef KWSDBG_COUNTER_NAME
  };
  return kNames;
}

size_t CountKey(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  size_t n = 0;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    ++n;
  }
  return n;
}

// The `"stats":{...}` object of every interpretation, braces included.
std::vector<std::string> StatsObjects(const std::string& json) {
  const std::string marker = "\"stats\":{";
  std::vector<std::string> out;
  for (size_t at = json.find(marker); at != std::string::npos;
       at = json.find(marker, at + marker.size())) {
    const size_t open = at + marker.size() - 1;
    int depth = 0;
    size_t end = open;
    for (; end < json.size(); ++end) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}' && --depth == 0) break;
    }
    out.push_back(json.substr(open, end + 1 - open));
  }
  return out;
}

template <typename T>
void ExpectSame(const char* name, CounterKind kind, T got, T want) {
  if (kind == CounterKind::kMillis) {
    EXPECT_NEAR(static_cast<double>(got), static_cast<double>(want), 1e-6)
        << name;
  } else {
    EXPECT_EQ(got, want) << name;
  }
}

// The toy database with its tables behind a buffer pool far smaller than
// their pages and its posting lists on disk, as in ExecutorSpillTest, so
// the storage rows of the table count real I/O.
class CounterFlowTest : public testing::Test {
 protected:
  void SetUp() override {
    auto ds = BuildToyProductDatabase();
    ASSERT_TRUE(ds.ok());
    db_ = std::move(ds->db);
    schema_ = std::move(ds->schema);
    index_ = std::make_unique<InvertedIndex>(InvertedIndex::Build(*db_));
    ASSERT_TRUE(index_->SpillToDisk("", /*cache_lists=*/4).ok());
    SpillOptions spill;
    spill.page_size = 512;
    ASSERT_TRUE(db_->ApplyMemoryBudget(1, spill).ok());
    ASSERT_TRUE(db_->AnySpilled());
    LatticeConfig config;
    config.max_joins = 2;
    config.num_keyword_copies = 3;
    auto lattice = LatticeGenerator::Generate(schema_, config);
    ASSERT_TRUE(lattice.ok());
    lattice_ = std::move(*lattice);

    DebuggerOptions options;
    options.sample_rows = 0;  // every executor call is a strategy's
    debugger_ = std::make_unique<NonAnswerDebugger>(
        db_.get(), lattice_.get(), index_.get(), options);
    before_ = debugger_->executor()->stats();
    auto report = debugger_->Debug("saffron scented candle");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    report_ = std::move(*report);
    after_ = debugger_->executor()->stats();
    ASSERT_GT(report_.interpretations.size(), 1u);
  }

  std::unique_ptr<Database> db_;
  SchemaGraph schema_;
  std::unique_ptr<InvertedIndex> index_;
  std::unique_ptr<Lattice> lattice_;
  std::unique_ptr<NonAnswerDebugger> debugger_;
  ExecutorStats before_, after_;
  DebugReport report_;
};

TEST_F(CounterFlowTest, ExecutorCountersSumToTheExecutorsDelta) {
  const TraversalStats sum = report_.AggregateTraversalStats();
#define KWSDBG_EXPECT_DELTA(name, kind, doc) \
  ExpectSame(#name, CounterKind::kind, sum.name, after_.name - before_.name);
  KWSDBG_EXECUTOR_COUNTERS(KWSDBG_EXPECT_DELTA)
#undef KWSDBG_EXPECT_DELTA
  // The fixture reaches the disk-backed and probe rows, so the equalities
  // above are not all 0 == 0.
  EXPECT_GT(sum.page_reads, 0u);
  EXPECT_GT(sum.posting_reads, 0u);
  EXPECT_GT(sum.flat_probes, 0u);
}

TEST_F(CounterFlowTest, ServiceStatsSumEveryCounter) {
  QueryResult result;
  result.report = report_;
  const ServiceStats stats = ComputeServiceStats({result, result}, 1.0);
  const TraversalStats once = report_.AggregateTraversalStats();
#define KWSDBG_EXPECT_SUM(name, kind, doc) \
  ExpectSame(#name, CounterKind::kind, stats.name, once.name + once.name);
  KWSDBG_TRAVERSAL_COUNTERS(KWSDBG_EXPECT_SUM)
#undef KWSDBG_EXPECT_SUM
  EXPECT_GT(stats.sql_queries, once.sql_queries);
}

TEST_F(CounterFlowTest, EveryCounterIsOneJsonKey) {
  const std::vector<std::string> objects =
      StatsObjects(DebugReportToJson(report_));
  ASSERT_EQ(objects.size(), report_.interpretations.size());
  for (const std::string& object : objects) {
    for (const std::string& name : TableNames()) {
      EXPECT_EQ(CountKey(object, name), 1u) << name << " in " << object;
    }
  }

  QueryResult result;
  result.report = report_;
  const std::string service_json =
      ServiceStatsToJson(ComputeServiceStats({result}, 1.0));
  for (const std::string& name : TableNames()) {
    EXPECT_EQ(CountKey(service_json, name), 1u) << name << " in "
                                                << service_json;
  }
}

}  // namespace
}  // namespace kwsdbg
