#include "env.h"

#include "common/timer.h"
#include "lattice/lattice_generator.h"
#include "storage/buffer_pool.h"

namespace kwsdbg::perfbench {

StatusOr<std::unique_ptr<Env>> BuildEnv(const EnvOptions& options) {
  auto env = std::make_unique<Env>();
  DblifeConfig config;
  config.seed = kDataSeed;

  Timer timer;
  KWSDBG_ASSIGN_OR_RETURN(env->data, GenerateDblife(config));
  env->times.generate_s = timer.ElapsedSeconds();

  timer.Reset();
  env->index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*env->db()));
  env->times.index_build_s = timer.ElapsedSeconds();

  // Level L means L - 1 joins; three keyword copies are lossless for the
  // workloads' queries of at most three keywords.
  LatticeConfig lattice_config;
  lattice_config.max_joins = kLatticeLevel - 1;
  lattice_config.copy_policy = CopyPolicy::kTextRelationsOnly;
  lattice_config.num_keyword_copies = 3;
  timer.Reset();
  KWSDBG_ASSIGN_OR_RETURN(
      env->lattice, LatticeGenerator::Generate(env->data.schema, lattice_config));
  env->times.lattice_s = timer.ElapsedSeconds();

  env->footprint_bytes = env->db()->EstimateBytes();
  if (options.spill) {
    env->budget_bytes = env->footprint_bytes / 4;
    SpillOptions spill;
    spill.spill_dir = options.spill_dir;
    timer.Reset();
    KWSDBG_RETURN_NOT_OK(env->db()->ApplyMemoryBudget(env->budget_bytes, spill));
    KWSDBG_RETURN_NOT_OK(
        env->index->SpillToDisk(options.spill_dir, /*cache_lists=*/64));
    env->times.spill_s = timer.ElapsedSeconds();
    if (!env->db()->AnySpilled()) {
      return Status::Internal("memory budget spilled no table");
    }
    env->pool_frames = env->db()->buffer_pool()->capacity();
  }
  return env;
}

}  // namespace kwsdbg::perfbench
