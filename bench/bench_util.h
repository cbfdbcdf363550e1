// Shared plumbing for the paper-reproduction benchmarks: one DBLife instance
// plus lattices at the paper's levels (3, 5, 7), and a fixed-width table
// printer so every bench prints rows comparable to the paper's figures.
//
// Environment knobs (all optional):
//   KWSDBG_SCALE      — dataset scale factor (default 1.0; the paper's
//                       801k-tuple snapshot corresponds to roughly 8-10x).
//   KWSDBG_MAX_LEVEL  — highest lattice level to benchmark (default 7).
//   KWSDBG_SEED       — dataset seed (default 42).
#ifndef KWSDBG_BENCH_BENCH_UTIL_H_
#define KWSDBG_BENCH_BENCH_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/dblife.h"
#include "datasets/workload.h"
#include "lattice/lattice_generator.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace bench {

/// Levels the paper reports (Table 3/4, Fig. 13): subset of {3, 5, 7}
/// capped by KWSDBG_MAX_LEVEL.
std::vector<size_t> PaperLevels();

/// The DBLife instance + index + per-level lattices, built once.
class BenchEnv {
 public:
  /// Builds the dataset and the lattices for `levels` (level L means
  /// max_joins = L - 1). Prints a short provenance header to stdout.
  explicit BenchEnv(const std::vector<size_t>& levels);

  const Database& db() const { return *dataset_.db; }
  const SchemaGraph& schema() const { return dataset_.schema; }
  const InvertedIndex& index() const { return index_; }

  /// Lattice for the given level (must be one of the requested levels).
  const Lattice& lattice(size_t level) const;

  double lattice_gen_millis(size_t level) const;

 private:
  DblifeDataset dataset_;
  InvertedIndex index_;
  std::map<size_t, std::unique_ptr<Lattice>> lattices_;
  std::map<size_t, double> gen_millis_;
};

/// The dataset scale: KWSDBG_SCALE when set, else `default_scale`.
double EnvScale(double default_scale = 1.0);

/// Reads the seed knob and EnvScale(default_scale) from the environment.
DblifeConfig EnvDblifeConfig(double default_scale = 1.0);
size_t EnvMaxLevel();

/// Minimal fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  /// Renders with a header rule; call once, after all rows.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimals.
std::string Fmt(double v, int digits = 1);

}  // namespace bench
}  // namespace kwsdbg

#endif  // KWSDBG_BENCH_BENCH_UTIL_H_
