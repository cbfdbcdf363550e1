#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "common/timer.h"

namespace kwsdbg {
namespace bench {

namespace {
double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}
size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}
}  // namespace

double EnvScale(double default_scale) {
  return EnvDouble("KWSDBG_SCALE", default_scale);
}

DblifeConfig EnvDblifeConfig(double default_scale) {
  DblifeConfig config;
  config.seed = EnvSize("KWSDBG_SEED", 42);
  const double scale = EnvScale(default_scale);
  return scale == 1.0 ? config : config.Scaled(scale);
}

size_t EnvMaxLevel() { return EnvSize("KWSDBG_MAX_LEVEL", 7); }

std::vector<size_t> PaperLevels() {
  std::vector<size_t> levels;
  for (size_t level : {size_t{3}, size_t{5}, size_t{7}}) {
    if (level <= EnvMaxLevel()) levels.push_back(level);
  }
  return levels;
}

BenchEnv::BenchEnv(const std::vector<size_t>& levels) {
  DblifeConfig config = EnvDblifeConfig();
  auto ds = GenerateDblife(config);
  KWSDBG_CHECK(ds.ok()) << ds.status().ToString();
  dataset_ = std::move(*ds);
  index_ = InvertedIndex::Build(*dataset_.db);
  std::printf(
      "# dataset: synthetic DBLife, %zu tables, %zu tuples (seed %llu)\n",
      dataset_.db->num_tables(), dataset_.db->TotalTuples(),
      static_cast<unsigned long long>(config.seed));
  for (size_t level : levels) {
    LatticeConfig lconfig;
    lconfig.max_joins = level - 1;
    lconfig.copy_policy = CopyPolicy::kTextRelationsOnly;
    lconfig.num_keyword_copies = 3;  // the workload has <= 3 keywords
    Timer timer;
    auto lattice = LatticeGenerator::Generate(dataset_.schema, lconfig);
    KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
    gen_millis_[level] = timer.ElapsedMillis();
    std::printf("# lattice level %zu: %zu nodes (%.0f ms offline)\n", level,
                (*lattice)->num_nodes(), gen_millis_[level]);
    lattices_[level] = std::move(*lattice);
  }
  std::printf("\n");
}

const Lattice& BenchEnv::lattice(size_t level) const {
  auto it = lattices_.find(level);
  KWSDBG_CHECK(it != lattices_.end()) << "no lattice for level " << level;
  return *it->second;
}

double BenchEnv::lattice_gen_millis(size_t level) const {
  auto it = gen_millis_.find(level);
  return it == gen_millis_.end() ? 0.0 : it->second;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      std::printf("%-*s", static_cast<int>(widths[i] + 2), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(double v, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << v;
  return out.str();
}

}  // namespace bench
}  // namespace kwsdbg
