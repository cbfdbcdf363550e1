// Session verdict cache on a repeated workload: every paper query is debugged
// twice through one NonAnswerDebugger session. Pass 1 populates the cache
// (cross-interpretation sharing already kicks in); pass 2 answers entirely
// from cached verdicts. The headline number is the SQL reduction factor
// between passes — the dashboard-refresh scenario where users re-run the
// same keyword queries against an unchanged database.
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "debugger/non_answer_debugger.h"

namespace kwsdbg {
namespace bench {
namespace {

struct PassTotals {
  size_t sql = 0;
  size_t hits = 0;
  size_t misses = 0;
  double millis = 0;
};

PassTotals RunPass(NonAnswerDebugger* debugger) {
  PassTotals totals;
  Timer timer;
  for (const WorkloadQuery& q : PaperWorkload()) {
    auto report = debugger->Debug(q.text);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    TraversalStats stats = report->AggregateTraversalStats();
    totals.sql += stats.sql_queries;
    totals.hits += stats.cache_hits;
    totals.misses += stats.cache_misses;
  }
  totals.millis = timer.ElapsedMillis();
  return totals;
}

void Run() {
  const std::vector<size_t> levels = PaperLevels();
  BenchEnv env(levels);
  std::printf(
      "Session verdict cache: paper workload debugged twice per session\n");
  TablePrinter table({"level", "pass", "SQL", "cache hits", "hit rate%", "ms"});
  for (size_t level : levels) {
    NonAnswerDebugger debugger(&env.db(), &env.lattice(level), &env.index());
    PassTotals cold = RunPass(&debugger);
    PassTotals warm = RunPass(&debugger);
    auto add_row = [&](const char* name, const PassTotals& p) {
      const double lookups = static_cast<double>(p.hits + p.misses);
      table.AddRow({std::to_string(level), name, std::to_string(p.sql),
                    std::to_string(p.hits),
                    Fmt(lookups > 0 ? 100.0 * p.hits / lookups : 0.0),
                    Fmt(p.millis)});
    };
    add_row("cold", cold);
    add_row("warm", warm);
    const double factor =
        warm.sql > 0 ? static_cast<double>(cold.sql) / warm.sql : 0.0;
    if (warm.sql == 0) {
      std::printf("L%zu: warm pass needed no SQL at all (cold pass: %zu)\n",
                  level, cold.sql);
    } else {
      std::printf("L%zu: SQL reduction factor %.1fx\n", level, factor);
    }
    KWSDBG_CHECK(warm.sql * 2 <= cold.sql)
        << "expected >= 2x SQL reduction on the warm pass";
  }
  table.Print();
  std::printf(
      "\nexpected shape: the warm pass re-answers every query from cached "
      "verdicts (hit rate ~100%%, SQL ~0); the cold pass already benefits "
      "from cross-interpretation sharing within each query.\n");
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main() {
  kwsdbg::bench::Run();
  return 0;
}
