// Benchmark data set-up: the seeded DBLife instance, its inverted index and
// the offline lattice, optionally pushed out of core. Every step is timed so
// the traced run can split set-up time by layer.
#ifndef KWSDBG_PERFBENCH_ENV_H_
#define KWSDBG_PERFBENCH_ENV_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "datasets/dblife.h"
#include "lattice/lattice.h"
#include "text/inverted_index.h"

namespace kwsdbg::perfbench {

/// DBLife data seed and lattice level shared by every workload. The data is
/// fixed; the workload seed only drives request order, hot sets and writes.
inline constexpr uint64_t kDataSeed = 42;
inline constexpr size_t kLatticeLevel = 5;

struct EnvOptions {
  /// Push the large tables behind the buffer pool at a quarter of the table
  /// footprint and the posting lists to disk (the `spilled` workload).
  bool spill = false;
  /// Directory for page and posting files; must exist.
  std::string spill_dir;
};

/// Seconds spent in each set-up layer.
struct SetupTimes {
  double generate_s = 0;     ///< GenerateDblife.
  double index_build_s = 0;  ///< InvertedIndex::Build.
  double lattice_s = 0;      ///< LatticeGenerator::Generate.
  double spill_s = 0;        ///< ApplyMemoryBudget + SpillToDisk.
};

/// One owned data instance. Not movable: the lattice points at the schema.
struct Env {
  DblifeDataset data;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<Lattice> lattice;
  SetupTimes times;
  size_t footprint_bytes = 0;  ///< Database::EstimateBytes before spilling.
  size_t budget_bytes = 0;     ///< Memory budget applied (0 = resident).
  size_t pool_frames = 0;      ///< Buffer-pool frames (0 = resident).

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  Database* db() const { return data.db.get(); }
};

StatusOr<std::unique_ptr<Env>> BuildEnv(const EnvOptions& options);

}  // namespace kwsdbg::perfbench

#endif  // KWSDBG_PERFBENCH_ENV_H_
