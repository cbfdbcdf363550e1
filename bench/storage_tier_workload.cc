// Out-of-core storage gate: the buffer-pool + on-disk-posting tier vs. the
// fully resident engine — see storage/buffer_pool.h, storage/database.h
// (ApplyMemoryBudget), and text/posting_store.h.
//
// For each dataset (scaled DBLife + e-commerce) the debugger workload is
// replayed twice under every traversal strategy:
//
//   resident  — everything in RAM (the pre-tier engine; storage counters
//               must stay zero).
//   spilled   — the identical, regenerated dataset with every large table
//               pushed through the buffer pool under a memory budget
//               smaller than the dataset, and the posting lists on disk.
//
// Gates: classification signatures bit-identical per strategy, the spilled
// runs actually page (page_reads > 0 in the aggregated traversal stats),
// and the page counters are visible in both the report JSON and the
// DebugService stats JSON. Emits BENCH_storage.json.
//
//   ./storage_tier_workload [--smoke] [--out=BENCH_storage.json]
//
// Environment knobs: KWSDBG_SEED / KWSDBG_SCALE as in bench_util.h.
// KWSDBG_SCALE replaces the mode's default DBLife scale: 10x in full mode
// (toward the paper's 801k-tuple snapshot), 0.05x in smoke mode.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/counter_table.h"
#include "common/logging.h"
#include "common/timer.h"
#include "datasets/dblife.h"
#include "datasets/ecommerce.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "debugger/report_json.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace bench {
namespace {

/// One dataset instance (db + lattice + index) plus how to rebuild it —
/// the spilled half regenerates from scratch so both modes see identical,
/// independently owned data.
struct TierEnv {
  std::string name;
  std::unique_ptr<Database> db;
  SchemaGraph schema;
  std::unique_ptr<Lattice> lattice;
  std::unique_ptr<InvertedIndex> index;
  std::vector<std::string> queries;
};

struct StrategyRun {
  std::string signature;
  TraversalStats stats;
  double millis = 0;
  std::string sample_report_json;  ///< First query's report (JSON).
};

StrategyRun RunStrategy(const TierEnv& env, TraversalKind kind) {
  DebuggerOptions options;
  options.strategy = kind;
  options.verdict_cache_capacity = 0;  // measure paging, not verdict reuse
  NonAnswerDebugger debugger(env.db.get(), env.lattice.get(),
                             env.index.get(), options);
  StrategyRun run;
  Timer timer;
  for (const std::string& query : env.queries) {
    auto report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    run.signature += report->ClassificationSignature();
    run.signature += '\n';
    AddRunCounters(&run.stats, report->AggregateTraversalStats());
    if (run.sample_report_json.empty()) {
      run.sample_report_json = DebugReportToJson(*report);
    }
  }
  run.millis = timer.ElapsedMillis();
  return run;
}

struct TierRow {
  std::string env;
  std::string strategy;
  std::string mode;  // "resident" | "spilled"
  TraversalStats stats;
  double millis = 0;
  bool signature_match = false;

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\"env\":\"" << env << "\",\"strategy\":\"" << strategy
        << "\",\"mode\":\"" << mode
        << "\",\"sql_queries\":" << stats.sql_queries
        << ",\"rows_probed\":" << stats.rows_probed
        << ",\"page_hits\":" << stats.page_hits
        << ",\"page_reads\":" << stats.page_reads
        << ",\"page_evictions\":" << stats.page_evictions
        << ",\"posting_reads\":" << stats.posting_reads
        << ",\"millis\":" << millis
        << ",\"signature_match\":" << (signature_match ? "true" : "false")
        << "}";
    return out.str();
  }
};

/// Spills `env` in place: posting lists to a PostingStore, tables through
/// the buffer pool under a budget of a quarter of the estimated footprint.
/// Returns the applied budget.
size_t SpillEnv(TierEnv* env) {
  const size_t total = env->db->EstimateBytes();
  const size_t budget = total / 4;
  KWSDBG_CHECK(budget > 0 && budget < total)
      << env->name << ": budget " << budget << " not below dataset " << total;
  Status st = env->index->SpillToDisk("", /*cache_lists=*/64);
  KWSDBG_CHECK(st.ok()) << st.ToString();
  st = env->db->ApplyMemoryBudget(budget);
  KWSDBG_CHECK(st.ok()) << st.ToString();
  KWSDBG_CHECK(env->db->AnySpilled()) << env->name << ": nothing spilled";
  return budget;
}

/// Replays the workload resident vs. spilled across all five strategies;
/// appends rows, returns the number of violated gates.
size_t RunEnvPair(TierEnv resident, TierEnv spilled, TablePrinter* table,
                  std::vector<TierRow>* rows, std::ostringstream* env_json) {
  size_t violations = 0;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++violations;
      std::printf("  [GATE] %s: %s\n", resident.name.c_str(), what.c_str());
    }
  };

  const size_t resident_bytes = resident.db->EstimateBytes();
  const size_t budget = SpillEnv(&spilled);
  StorageStats spill_shape = spilled.db->storage_stats();
  std::printf("  %s: %zu tuple(s), resident %.1f MiB, budget %.1f MiB, "
              "%zu table(s) spilled (%.1f MiB on disk)\n",
              resident.name.c_str(), resident.db->TotalTuples(),
              resident_bytes / 1048576.0, budget / 1048576.0,
              spill_shape.spilled_tables,
              spill_shape.spilled_bytes / 1048576.0);

  const TraversalKind kinds[] = {
      TraversalKind::kBottomUp, TraversalKind::kTopDown,
      TraversalKind::kBottomUpWithReuse, TraversalKind::kTopDownWithReuse,
      TraversalKind::kScoreBased};
  std::string spilled_sample_json;
  size_t total_page_reads = 0;
  size_t total_posting_reads = 0;
  for (TraversalKind kind : kinds) {
    const StrategyRun base = RunStrategy(resident, kind);
    const StrategyRun paged = RunStrategy(spilled, kind);
    const bool match = paged.signature == base.signature;
    gate(match, std::string(TraversalKindName(kind)) +
                    " classifies differently out-of-core");
    gate(base.stats.page_reads + base.stats.page_hits +
                 base.stats.posting_reads ==
             0,
         std::string(TraversalKindName(kind)) +
             " resident run touched the storage tier");
    gate(paged.stats.page_reads + paged.stats.page_hits > 0,
         std::string(TraversalKindName(kind)) +
             " spilled run saw no page traffic");
    // Cold-read gates are per-env: the pool and the posting LRU cache
    // persist across strategy runs, so later strategies may be fully
    // cache-served — but the first cannot be.
    total_page_reads += paged.stats.page_reads;
    total_posting_reads += paged.stats.posting_reads;
    if (spilled_sample_json.empty()) {
      spilled_sample_json = paged.sample_report_json;
    }
    for (const StrategyRun* run : {&base, &paged}) {
      const bool is_spilled = run == &paged;
      table->AddRow({resident.name, std::string(TraversalKindName(kind)),
                     is_spilled ? "spilled" : "resident",
                     std::to_string(run->stats.sql_queries),
                     std::to_string(run->stats.page_reads),
                     std::to_string(run->stats.page_hits),
                     std::to_string(run->stats.page_evictions),
                     std::to_string(run->stats.posting_reads),
                     Fmt(run->millis)});
      rows->push_back({resident.name, std::string(TraversalKindName(kind)),
                       is_spilled ? "spilled" : "resident", run->stats,
                       run->millis, match});
    }
  }

  gate(total_page_reads > 0, "spilled runs never read a page from disk");
  gate(total_posting_reads > 0,
       "spilled runs never read a posting list from disk");

  // Counters must be visible in the per-report JSON…
  gate(spilled_sample_json.find("\"page_reads\"") != std::string::npos,
       "report JSON does not expose page_reads");

  // …and in the service stats JSON. A spilled engine is a single-session
  // artifact (the pool and posting cache are not thread-safe), so the
  // service is const (no write path) and runs one worker; DebugService
  // refuses anything else over it.
  {
    ServiceOptions service_options;
    service_options.num_workers = 1;
    const Database* db = spilled.db.get();
    const InvertedIndex* index = spilled.index.get();
    DebugService service(db, spilled.lattice.get(), index, service_options);
    BatchResult batch = service.RunBatch(
        {spilled.queries.front(), spilled.queries.back()});
    gate(batch.status.ok(), "service batch failed on the spilled engine: " +
                                batch.status.ToString());
    const std::string stats_json = ServiceStatsToJson(batch.stats);
    gate(stats_json.find("\"page_reads\"") != std::string::npos,
         "service stats JSON does not expose page_reads");
    gate(batch.stats.page_reads + batch.stats.page_hits > 0,
         "service stats show no page traffic on the spilled engine");
    *env_json << ",\"service_stats\":" << stats_json;
  }

  StorageStats final_stats = spilled.db->storage_stats();
  std::printf("  %s: buffer pool holds %zu frame(s), %.1f of its %.1f KiB\n",
              resident.name.c_str(), final_stats.pool_frames,
              final_stats.pool_charged_bytes / 1024.0,
              final_stats.pool_budget_bytes / 1024.0);
  *env_json << ",\"storage\":{\"resident_bytes\":" << resident_bytes
            << ",\"budget_bytes\":" << budget
            << ",\"spilled_tables\":" << final_stats.spilled_tables
            << ",\"spilled_bytes\":" << final_stats.spilled_bytes
            << ",\"page_hits\":" << final_stats.page_hits
            << ",\"page_reads\":" << final_stats.page_reads
            << ",\"page_evictions\":" << final_stats.page_evictions
            << ",\"pool_frames\":" << final_stats.pool_frames
            << ",\"pool_charged_bytes\":" << final_stats.pool_charged_bytes
            << ",\"pool_budget_bytes\":" << final_stats.pool_budget_bytes
            << "}";
  return violations;
}

TierEnv BuildDblifeEnv(bool smoke) {
  // Full mode: 10x toward the paper's snapshot; smoke keeps CI cheap.
  const double default_scale = smoke ? 0.05 : 10.0;
  auto dataset = GenerateDblife(EnvDblifeConfig(default_scale));
  KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
  TierEnv env;
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
    if (smoke && env.queries.size() >= 3) break;
  }
  return env;
}

TierEnv BuildEcommerceEnv(bool smoke) {
  EcommerceConfig config;
  config.num_items = smoke ? 120 : 500;
  auto dataset = GenerateEcommerce(config);
  KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
  TierEnv env;
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

int Run(bool smoke, const std::string& out_path) {
  std::printf("Storage tier workload: resident vs out-of-core "
              "(buffer pool + on-disk postings), %s mode\n",
              smoke ? "smoke" : "full");

  size_t violations = 0;
  std::vector<TierRow> rows;
  TablePrinter table({"env", "strategy", "mode", "SQL", "pg reads", "pg hits",
                      "evictions", "posting rd", "ms"});
  std::ostringstream env_jsons;

  {
    std::ostringstream env_json;
    violations += RunEnvPair(BuildDblifeEnv(smoke), BuildDblifeEnv(smoke),
                             &table, &rows, &env_json);
    env_jsons << "{\"env\":\"dblife\"" << env_json.str() << "}";
  }
  {
    std::ostringstream env_json;
    violations += RunEnvPair(BuildEcommerceEnv(smoke),
                             BuildEcommerceEnv(smoke), &table, &rows,
                             &env_json);
    env_jsons << ",{\"env\":\"ecommerce\"" << env_json.str() << "}";
  }
  table.Print();

  {
    std::ostringstream json;
    json << "{\"bench\":\"storage_tier_workload\",\"smoke\":"
         << (smoke ? "true" : "false") << ",\"runs\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) json << ',';
      json << rows[i].ToJson();
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
    std::printf("\nSTORAGE TIER GATE FAILED: %zu violation(s)\n", violations);
    return 1;
  }
  std::printf("\nSTORAGE TIER GATE OK: classifications bit-identical "
              "resident vs out-of-core, page traffic visible end to end\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  // The bench compares resident vs spilled under its own budget; a global
  // KWSDBG_MEMORY_BUDGET would pre-spill the "resident" side at dataset load.
  ::unsetenv("KWSDBG_MEMORY_BUDGET");
  bool smoke = false;
  std::string out_path = "BENCH_storage.json";
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
