// Shared runner for the traversal-strategy benchmarks (Figs. 11-12,
// Table 4, ablation): run one strategy over every interpretation of one
// query and accumulate its work counters.
#ifndef KWSDBG_BENCH_TRAVERSAL_COMMON_H_
#define KWSDBG_BENCH_TRAVERSAL_COMMON_H_

#include "bench_util.h"
#include "common/logging.h"
#include "kws/pruned_lattice.h"
#include "sql/executor.h"
#include "traversal/evaluator.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace bench {

struct StrategyRun {
  size_t sql_queries = 0;
  double sql_millis = 0;
  double total_millis = 0;
  size_t mtns = 0;
  size_t dead_mtns = 0;
  size_t mpans = 0;
};

/// Runs `strategy` over every interpretation of `query` against the lattice
/// at `level`. A fresh Executor (cold caches) is used per call so strategies
/// are compared on equal footing.
inline StrategyRun RunStrategyOnQuery(const BenchEnv& env, size_t level,
                                      const std::string& query,
                                      TraversalStrategy* strategy) {
  StrategyRun out;
  const Lattice& lattice = env.lattice(level);
  KeywordBinder binder(&env.schema(), &env.index(),
                       lattice.config().EffectiveKeywordCopies());
  BindingResult binding_result = binder.Bind(query);
  Executor executor(&env.db());
  executor.RegisterTextIndex(&env.index());
  for (const KeywordBinding& binding : binding_result.interpretations) {
    PrunedLattice pl = PrunedLattice::Build(lattice, binding);
    if (pl.mtns().empty()) continue;
    QueryEvaluator evaluator(&env.db(), &executor, &pl, &env.index());
    auto result = strategy->Run(pl, &evaluator);
    KWSDBG_CHECK(result.ok()) << result.status().ToString();
    out.sql_queries += result->stats.sql_queries;
    out.sql_millis += result->stats.sql_millis;
    out.total_millis += result->stats.total_millis;
    for (const MtnOutcome& o : result->outcomes) {
      ++out.mtns;
      if (!o.alive) {
        ++out.dead_mtns;
        out.mpans += o.mpans.size();
      }
    }
  }
  return out;
}

}  // namespace bench
}  // namespace kwsdbg

#endif  // KWSDBG_BENCH_TRAVERSAL_COMMON_H_
