// Live-data gate: incremental index maintenance + relation-scoped cache
// invalidation vs. the rebuild-the-world baseline — see
// service/live_mutator.h, text/inverted_index.h (ApplyRow*), and
// traversal/verdict_cache.h (relation-set fingerprints).
//
// Three gates over two catalogs (scaled DBLife + e-commerce):
//
//   parity — an interleaved mutation stream (inserts / deletes / updates,
//            auto-compaction included) runs against long-lived debuggers
//            whose index is patched incrementally; at every checkpoint all
//            five traversal strategies must classify the workload exactly
//            like a fresh debugger whose index is REBUILT from scratch.
//   warm   — after warming a mutable DebugService, one write to a single
//            table must keep the verdict tier at least 50% warm on the
//            rerun (relation-scoped eviction, not epoch-bump-everything).
//   chaos  — seeded random writes (with `storage.mutation.apply` faults
//            armed part of the time) interleave with service batches; zero
//            stale verdicts against the rebuild oracle.
//
// Emits BENCH_live_data.json.
//
//   ./live_data_workload [--smoke] [--out=BENCH_live_data.json]
//
// Environment knobs: KWSDBG_SEED / KWSDBG_SCALE as in bench_util.h;
// KWSDBG_MUTATION_RATE writes per chaos query (default 3).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "datasets/dblife.h"
#include "datasets/ecommerce.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace kwsdbg {
namespace bench {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}

struct LiveEnv {
  std::string name;
  std::unique_ptr<Database> db;
  SchemaGraph schema;
  std::unique_ptr<Lattice> lattice;
  std::unique_ptr<InvertedIndex> index;
  std::vector<std::string> queries;
};

LiveEnv BuildDblifeEnv(bool smoke) {
  const double default_scale = smoke ? 0.05 : 1.0;
  auto dataset = GenerateDblife(EnvDblifeConfig(default_scale));
  KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
  LiveEnv env;
  std::ostringstream name;
  name << "dblife(" << EnvScale(default_scale) << "x)";
  env.name = name.str();
  env.db = std::move(dataset->db);
  env.schema = std::move(dataset->schema);
  LatticeConfig lconfig;
  lconfig.max_joins = 2;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(env.schema, lconfig);
  KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
  env.lattice = std::move(*lattice);
  env.index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*env.db));
  for (const WorkloadQuery& q : PaperWorkload()) {
    env.queries.push_back(q.text);
    if (env.queries.size() >= (smoke ? 3u : 6u)) break;
  }
  return env;
}

LiveEnv BuildEcommerceEnv(bool smoke) {
  EcommerceConfig config;
  config.num_items = smoke ? 100 : 400;
  auto dataset = GenerateEcommerce(config);
  KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
  LiveEnv env;
  env.name = "ecommerce";
  env.db = std::move(dataset->db);
  env.schema = std::move(dataset->schema);
  LatticeConfig lconfig;
  lconfig.max_joins = 2;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(env.schema, lconfig);
  KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
  env.lattice = std::move(*lattice);
  env.index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*env.db));
  env.queries = {"saffron candle", "lavender soap"};
  if (!smoke) env.queries.push_back("handmade crimson candle");
  return env;
}

/// One seeded random write. Insert-heavy mix so tables grow over the
/// stream; strings draw from sampled index vocabulary plus the occasional
/// fresh word (dictionary refinalize on the resident index).
Mutation RandomMutation(Rng* rng, Database* db,
                        const std::vector<std::string>& vocab) {
  const std::vector<std::string> names = db->TableNames();
  const std::string& tname = names[rng->Uniform(names.size())];
  Table* t = db->FindTable(tname);
  const double roll = rng->NextDouble();
  uint64_t kind = roll < 0.5 ? 0 : (roll < 0.8 ? 2 : 1);
  if (t->live_rows() == 0) kind = 0;

  auto random_value = [&](DataType type) {
    switch (type) {
      case DataType::kInt64:
        return Value(static_cast<int64_t>(rng->Uniform(128)));
      case DataType::kDouble:
        return Value(static_cast<double>(rng->Uniform(100)) * 0.25);
      case DataType::kString: {
        std::string s = vocab[rng->Uniform(vocab.size())];
        if (rng->Bernoulli(0.3)) s += ' ' + vocab[rng->Uniform(vocab.size())];
        if (rng->Bernoulli(0.05)) {
          s += " liveword" + std::to_string(rng->Uniform(16));
        }
        return Value(s);
      }
    }
    return Value();
  };

  if (kind == 0) {
    Tuple row;
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      row.push_back(random_value(t->schema().column(c).type));
    }
    return Mutation::Insert(tname, std::move(row));
  }
  size_t row = rng->Uniform(t->num_rows());
  while (t->deleted(row)) row = (row + 1) % t->num_rows();
  if (kind == 1) return Mutation::Delete(tname, row);
  const size_t col = rng->Uniform(t->schema().num_columns());
  return Mutation::Update(tname, row, col,
                          random_value(t->schema().column(col).type));
}

std::vector<std::string> SampledVocab(const InvertedIndex& index) {
  std::vector<std::string> vocab = index.Terms();
  if (vocab.size() > 32) vocab.resize(32);
  KWSDBG_CHECK(!vocab.empty());
  return vocab;
}

/// Signatures of the whole workload under one strategy with a debugger
/// whose index is rebuilt from the database's current contents.
std::string RebuildReference(const LiveEnv& env, TraversalKind kind) {
  const InvertedIndex rebuilt = InvertedIndex::Build(*env.db);
  DebuggerOptions options;
  options.strategy = kind;
  NonAnswerDebugger debugger(env.db.get(), env.lattice.get(), &rebuilt,
                             options);
  std::string sig;
  for (const std::string& query : env.queries) {
    auto report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    sig += report->ClassificationSignature();
    sig += '\n';
  }
  return sig;
}

struct ParityRow {
  std::string env;
  std::string strategy;
  size_t checkpoints = 0;
  size_t mutations = 0;
  size_t compactions = 0;
  bool match = true;
};

/// Gate (a): interleaved mutation stream vs rebuild-the-world, all five
/// strategies through LONG-LIVED debuggers (their session caches must
/// invalidate per-table, never serve a stale verdict, and survive
/// auto-compaction row-id remaps).
size_t RunParityGate(LiveEnv* env, bool smoke, std::vector<ParityRow>* rows) {
  RelationFences fences(env->db->num_tables());
  LiveMutator mutator(env->db.get(), env->index.get(), &fences);
  Rng rng(0x11FEDA7Au);
  const std::vector<std::string> vocab = SampledVocab(*env->index);

  struct StrategyState {
    TraversalKind kind;
    std::unique_ptr<NonAnswerDebugger> debugger;
    bool match = true;
  };
  std::vector<StrategyState> strategies;
  for (TraversalKind kind : AllTraversalKinds()) {
    DebuggerOptions options;
    options.strategy = kind;
    strategies.push_back(
        {kind,
         std::make_unique<NonAnswerDebugger>(env->db.get(),
                                             env->lattice.get(),
                                             env->index.get(), options),
         true});
  }

  const size_t checkpoints = smoke ? 4 : 10;
  const size_t writes_per_checkpoint = smoke ? 4 : 8;
  size_t mutations = 0;
  size_t violations = 0;
  for (size_t cp = 0; cp < checkpoints; ++cp) {
    for (size_t m = 0; m < writes_per_checkpoint; ++m) {
      const Mutation mutation = RandomMutation(&rng, env->db.get(), vocab);
      Status st = mutator.Apply(mutation);
      if (st.ok()) ++mutations;
    }
    for (StrategyState& s : strategies) {
      const std::string want = RebuildReference(*env, s.kind);
      std::string got;
      for (const std::string& query : env->queries) {
        auto report = s.debugger->Debug(query);
        KWSDBG_CHECK(report.ok()) << report.status().ToString();
        got += report->ClassificationSignature();
        got += '\n';
      }
      if (got != want) {
        s.match = false;
        ++violations;
        std::printf("  [GATE] %s/%s: incremental run diverged from rebuild "
                    "at checkpoint %zu\n",
                    env->name.c_str(),
                    std::string(TraversalKindName(s.kind)).c_str(), cp);
      }
    }
  }
  for (const StrategyState& s : strategies) {
    rows->push_back({env->name, std::string(TraversalKindName(s.kind)),
                     checkpoints, mutations,
                     static_cast<size_t>(mutator.stats().compactions.load()),
                     s.match});
  }
  std::printf("  %s parity: %zu checkpoint(s), %zu mutation(s), "
              "%llu compaction(s)\n",
              env->name.c_str(), checkpoints, mutations,
              static_cast<unsigned long long>(
                  mutator.stats().compactions.load()));
  return violations;
}

/// The table bound by the fewest workload keywords — a write there should
/// leave most of the verdict tier warm.
std::string ColdestTable(const LiveEnv& env) {
  std::string best;
  size_t best_count = static_cast<size_t>(-1);
  for (const std::string& name : env.db->TableNames()) {
    size_t count = 0;
    for (const std::string& query : env.queries) {
      for (const std::string& term : TokenizeUnique(query)) {
        count += env.index->RowFrequency(term, name);
      }
    }
    if (count < best_count) {
      best_count = count;
      best = name;
    }
  }
  return best;
}

struct WarmResult {
  std::string victim;
  double hit_rate_warm = 0;
  double hit_rate_after = 0;
  size_t partial_evictions = 0;
  std::string stats_json;
};

/// Gate (b): a single-table write must keep the service's verdict tier at
/// least 50% warm on the rerun.
size_t RunWarmGate(LiveEnv* env, WarmResult* out) {
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(env->db.get(), env->lattice.get(), env->index.get(),
                       options);
  KWSDBG_CHECK(service.mutator() != nullptr);

  auto hit_rate = [](const ServiceStats& stats) {
    const size_t total = stats.cache_hits + stats.cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(stats.cache_hits) / total;
  };

  BatchResult cold = service.RunBatch(env->queries);
  KWSDBG_CHECK(cold.status.ok());
  BatchResult warm = service.RunBatch(env->queries);
  KWSDBG_CHECK(warm.status.ok());
  out->hit_rate_warm = hit_rate(warm.stats);

  out->victim = ColdestTable(*env);
  Table* victim = env->db->FindTable(out->victim);
  KWSDBG_CHECK(victim != nullptr);
  Tuple row;
  for (size_t c = 0; c < victim->schema().num_columns(); ++c) {
    switch (victim->schema().column(c).type) {
      case DataType::kInt64:
        row.emplace_back(int64_t{424242});
        break;
      case DataType::kDouble:
        row.emplace_back(42.0);
        break;
      case DataType::kString:
        row.emplace_back(std::string("livegatewrite"));
        break;
    }
  }
  Status st = service.ApplyMutation(Mutation::Insert(out->victim, row));
  KWSDBG_CHECK(st.ok()) << st.ToString();

  BatchResult after = service.RunBatch(env->queries);
  KWSDBG_CHECK(after.status.ok());
  out->hit_rate_after = hit_rate(after.stats);
  out->partial_evictions = after.stats.partial_evictions;
  out->stats_json = ServiceStatsToJson(after.stats);

  size_t violations = 0;
  if (out->hit_rate_after < 0.5) {
    ++violations;
    std::printf("  [GATE] %s: warm hit rate after single-table write %.1f%% "
                "< 50%% (write to %s)\n",
                env->name.c_str(), out->hit_rate_after * 100,
                out->victim.c_str());
  }
  if (after.stats.mutations_applied == 0) {
    ++violations;
    std::printf("  [GATE] %s: mutation counters missing from service stats\n",
                env->name.c_str());
  }
  std::printf("  %s warm: hit rate %.1f%% warm, %.1f%% after a write to %s "
              "(%zu verdict(s) evicted)\n",
              env->name.c_str(), out->hit_rate_warm * 100,
              out->hit_rate_after * 100, out->victim.c_str(),
              out->partial_evictions);
  return violations;
}

struct ChaosResult {
  size_t queries = 0;
  size_t mutations_applied = 0;
  size_t faults_fired = 0;
  size_t stale_verdicts = 0;
};

/// Gate (c): seeded read/write chaos with the mutation fault point armed;
/// every service answer must match the rebuild oracle — zero stale verdicts.
size_t RunChaosGate(LiveEnv* env, bool smoke, ChaosResult* out) {
  const size_t mutation_rate = EnvSize("KWSDBG_MUTATION_RATE", 3);
  ServiceOptions options;
  options.num_workers = 2;
  DebugService service(env->db.get(), env->lattice.get(), env->index.get(),
                       options);
  Rng rng(0xC4A05BADu);
  const std::vector<std::string> vocab = SampledVocab(*env->index);
  ScopedFaultInjection faults(
      "storage.mutation.apply=unavailable,p=0.2,seed=99");

  const size_t rounds = smoke ? 3 : 8;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t m = 0; m < mutation_rate; ++m) {
      const Mutation mutation = RandomMutation(&rng, env->db.get(), vocab);
      if (service.ApplyMutation(mutation).ok()) ++out->mutations_applied;
    }
    for (const std::string& query : env->queries) {
      std::string want;
      {
        const InvertedIndex rebuilt = InvertedIndex::Build(*env->db);
        NonAnswerDebugger serial(env->db.get(), env->lattice.get(),
                                 &rebuilt);
        auto report = serial.Debug(query);
        KWSDBG_CHECK(report.ok()) << report.status().ToString();
        want = report->ClassificationSignature();
      }
      BatchResult batch = service.RunBatch({query});
      KWSDBG_CHECK(batch.status.ok());
      ++out->queries;
      const QueryResult& r = batch.results.front();
      KWSDBG_CHECK(r.status.ok()) << r.status.ToString();
      if (r.report.ClassificationSignature() != want) ++out->stale_verdicts;
    }
  }
  out->faults_fired = FaultInjector::Global()
                          .StatsFor("storage.mutation.apply")
                          .fires;

  size_t violations = 0;
  if (out->stale_verdicts > 0) {
    ++violations;
    std::printf("  [GATE] %s: %zu stale verdict(s) under chaos writes\n",
                env->name.c_str(), out->stale_verdicts);
  }
  if (out->mutations_applied == 0) {
    ++violations;
    std::printf("  [GATE] %s: chaos applied no mutation at all\n",
                env->name.c_str());
  }
  std::printf("  %s chaos: %zu query(ies), %zu write(s) applied, %zu fault "
              "fire(s), %zu stale verdict(s)\n",
              env->name.c_str(), out->queries, out->mutations_applied,
              out->faults_fired, out->stale_verdicts);
  return violations;
}

int Run(bool smoke, const std::string& out_path) {
  std::printf("Live-data workload: incremental maintenance vs rebuild, "
              "%s mode\n",
              smoke ? "smoke" : "full");

  size_t violations = 0;
  std::vector<ParityRow> parity_rows;
  std::ostringstream env_jsons;
  bool first_env = true;

  for (const bool is_dblife : {true, false}) {
    // Fresh instances per gate: each gate owns its mutation stream.
    LiveEnv parity_env =
        is_dblife ? BuildDblifeEnv(smoke) : BuildEcommerceEnv(smoke);
    std::printf("\n%s: %zu tuple(s), %zu queries\n", parity_env.name.c_str(),
                parity_env.db->TotalTuples(), parity_env.queries.size());
    violations += RunParityGate(&parity_env, smoke, &parity_rows);

    LiveEnv warm_env =
        is_dblife ? BuildDblifeEnv(smoke) : BuildEcommerceEnv(smoke);
    WarmResult warm;
    violations += RunWarmGate(&warm_env, &warm);

    LiveEnv chaos_env =
        is_dblife ? BuildDblifeEnv(smoke) : BuildEcommerceEnv(smoke);
    ChaosResult chaos;
    violations += RunChaosGate(&chaos_env, smoke, &chaos);

    if (!first_env) env_jsons << ',';
    first_env = false;
    env_jsons << "{\"env\":\"" << parity_env.name << "\""
              << ",\"warm\":{\"victim\":\"" << warm.victim << "\""
              << ",\"hit_rate_warm\":" << warm.hit_rate_warm
              << ",\"hit_rate_after_write\":" << warm.hit_rate_after
              << ",\"partial_evictions\":" << warm.partial_evictions
              << ",\"service_stats\":" << warm.stats_json << "}"
              << ",\"chaos\":{\"queries\":" << chaos.queries
              << ",\"mutations_applied\":" << chaos.mutations_applied
              << ",\"faults_fired\":" << chaos.faults_fired
              << ",\"stale_verdicts\":" << chaos.stale_verdicts << "}}";
  }

  TablePrinter table({"env", "strategy", "checkpoints", "mutations",
                      "compactions", "parity"});
  for (const ParityRow& row : parity_rows) {
    table.AddRow({row.env, row.strategy, std::to_string(row.checkpoints),
                  std::to_string(row.mutations),
                  std::to_string(row.compactions),
                  row.match ? "ok" : "DIVERGED"});
  }
  std::printf("\n");
  table.Print();

  {
    std::ostringstream json;
    json << "{\"bench\":\"live_data_workload\",\"smoke\":"
         << (smoke ? "true" : "false") << ",\"parity\":[";
    for (size_t i = 0; i < parity_rows.size(); ++i) {
      const ParityRow& row = parity_rows[i];
      if (i > 0) json << ',';
      json << "{\"env\":\"" << row.env << "\",\"strategy\":\""
           << row.strategy << "\",\"checkpoints\":" << row.checkpoints
           << ",\"mutations\":" << row.mutations
           << ",\"compactions\":" << row.compactions
           << ",\"match\":" << (row.match ? "true" : "false") << "}";
    }
    json << "],\"envs\":[" << env_jsons.str() << "]"
         << ",\"violations\":" << violations << '}';
    std::ofstream f(out_path);
    if (f) {
      f << json.str() << '\n';
      std::printf("\nwrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }
  }

  if (violations > 0) {
    std::printf("\nLIVE DATA GATE FAILED: %zu violation(s)\n", violations);
    return 1;
  }
  std::printf("\nLIVE DATA GATE OK: incremental maintenance matches rebuild "
              "under all five strategies, one write keeps the tier warm, "
              "zero stale verdicts under chaos\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  // A global memory budget would spill the catalogs at load, and spilled
  // tables and indexes are read-only: live writes need the resident tier.
  ::unsetenv("KWSDBG_MEMORY_BUDGET");
  bool smoke = false;
  std::string out_path = "BENCH_live_data.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  return kwsdbg::bench::Run(smoke, out_path);
}
