// Reproduces Fig. 13: the percentage of reuse 100 * (1 - Nu/N) per workload
// query, where N is the total number of MTN descendants (with multiplicity)
// and Nu the number of unique ones, at levels 3, 5, and 7.
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "kws/pruned_lattice.h"

namespace kwsdbg {
namespace bench {
namespace {

double ReusePercent(const BenchEnv& env, size_t level,
                    const std::string& query) {
  const Lattice& lattice = env.lattice(level);
  KeywordBinder binder(&env.schema(), &env.index(),
                       lattice.config().EffectiveKeywordCopies());
  BindingResult binding_result = binder.Bind(query);
  size_t total = 0, unique = 0;
  for (const KeywordBinding& binding : binding_result.interpretations) {
    PrunedLattice pl = PrunedLattice::Build(lattice, binding);
    total += pl.stats().mtn_desc_total;
    unique += pl.stats().mtn_desc_unique;
  }
  if (total == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(unique) /
                            static_cast<double>(total));
}

void Run() {
  const std::vector<size_t> levels = PaperLevels();
  BenchEnv env(levels);
  std::printf("Fig. 13: percentage of reuse per query, 100*(1 - Nu/N)\n");
  std::vector<std::string> headers = {"query"};
  for (size_t level : levels) {
    std::string header = "L";
    header += std::to_string(level);
    header += " reuse%";
    headers.push_back(header);
  }
  TablePrinter table(headers);
  for (const WorkloadQuery& q : PaperWorkload()) {
    std::vector<std::string> row = {q.id};
    for (size_t level : levels) {
      row.push_back(Fmt(ReusePercent(env, level, q.text)));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nexpected shape (paper): reuse is query dependent and increases "
      "with the lattice level (more allowed joins -> more shared "
      "sub-queries).\n");
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main() {
  kwsdbg::bench::Run();
  return 0;
}
