// Adaptive traversal gate: SBH reading an online-learned p_a model
// (src/traversal/pa_model.h) vs. every static strategy — see
// docs/architecture.md "Adaptive traversal".
//
// For each workload (Table 2 DBLife, a random-query DBLife sweep, and the
// e-commerce dataset) the bench runs three phases against one PaModel:
//
//   warm     — observation-only passes fill the p_a model from real verdicts
//              (the model is advisory: verdicts stay ground truth).
//   freeze   — the model stops observing/decaying so every later pass sees
//              the same frozen estimates.
//   measure  — each static strategy (SBH at the paper's fixed p_a = 0.5)
//              replays the workload with a fresh debugger and no verdict
//              cache, then the workload replays once more in adaptive mode:
//              SBH reading the frozen model.
//
// Gates (per workload):
//   - adaptive total SQL <= every static strategy's total (always checked).
//   - adaptive traversal wall-clock <= every static strategy's, with a 10%
//     jitter allowance (full mode + NDEBUG only; smoke timings are
//     sub-millisecond and all noise). The JSON records "wallclock_gate":
//     "gated" or "skipped: <reason>".
//   - classification signatures bit-identical across every strategy and the
//     adaptive pass (verdict order never changes verdicts).
//   - the model's counters visible in the DebugService stats JSON with the
//     service's shared model actually observing.
//
// Emits BENCH_adaptive.json.
//
//   ./adaptive_workload [--smoke] [--out=BENCH_adaptive.json]
//
// Environment knobs: KWSDBG_SEED / KWSDBG_SCALE (bench_util.h),
// KWSDBG_WORKLOAD_SEED (random sweep).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "datasets/dblife.h"
#include "datasets/ecommerce.h"
#include "datasets/query_generator.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "text/inverted_index.h"
#include "traversal/pa_model.h"

namespace kwsdbg {
namespace bench {
namespace {

struct TierEnv {
  std::string name;
  std::unique_ptr<Database> db;
  SchemaGraph schema;
  std::unique_ptr<Lattice> lattice;
  std::unique_ptr<InvertedIndex> index;
};

/// One workload over one dataset; each gets its own PaModel so the gate is
/// judged on what the model learned from *this* workload alone.
struct Workload {
  const TierEnv* tier = nullptr;
  std::string name;
  std::vector<std::string> queries;
};

struct PassMeasure {
  size_t sql = 0;
  double traversal_millis = 0;  ///< Sum of per-interpretation total_millis.
  double wall_millis = 0;       ///< Whole pass, including binding/reports.
  std::string signature;
};

/// Observation-only warm pass: a static strategy with the evaluator's
/// observation hook attached. Different strategies evaluate different node
/// subsets, so two passes (bottom-up-reuse + SBH) cover low and mixed levels.
void WarmModel(const Workload& w, PaModel* model) {
  for (TraversalKind kind :
       {TraversalKind::kBottomUpWithReuse, TraversalKind::kScoreBased}) {
    DebuggerOptions options;
    options.strategy = kind;
    options.verdict_cache_capacity = 0;
    options.eval.pa_model = model;
    NonAnswerDebugger debugger(w.tier->db.get(), w.tier->lattice.get(),
                               w.tier->index.get(), options);
    for (const std::string& query : w.queries) {
      auto report = debugger.Debug(query);
      KWSDBG_CHECK(report.ok()) << report.status().ToString();
    }
  }
}

/// Replays the workload with a fresh debugger and no verdict cache: under
/// `kind` at the fixed p_a when `adaptive` is off, else in adaptive mode
/// (SBH reading the frozen `model`).
PassMeasure MeasurePass(const Workload& w, TraversalKind kind, bool adaptive,
                        PaModel* model) {
  DebuggerOptions options;
  options.strategy = kind;
  options.verdict_cache_capacity = 0;
  if (adaptive) {
    options.adaptive = true;
    options.shared_pa_model = model;
  } else {
    // Mirror the adaptive debugger's evaluator wiring; Observe() no-ops on
    // the frozen model, so this only equalizes the code path being timed.
    options.eval.pa_model = model;
  }
  NonAnswerDebugger debugger(w.tier->db.get(), w.tier->lattice.get(),
                             w.tier->index.get(), options);
  PassMeasure m;
  Timer timer;
  for (const std::string& query : w.queries) {
    auto report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    m.signature += report->ClassificationSignature();
    m.signature += '\n';
    for (const InterpretationReport& interp : report->interpretations) {
      m.sql += interp.traversal_stats.sql_queries;
      m.traversal_millis += interp.traversal_stats.total_millis;
    }
  }
  m.wall_millis = timer.ElapsedMillis();
  return m;
}

struct BenchRow {
  std::string workload;
  std::string arm;  // "adaptive" for the measured pass
  size_t sql = 0;
  double traversal_millis = 0;
  double wall_millis = 0;
  bool signature_match = false;

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\"workload\":\"" << workload << "\",\"arm\":\"" << arm
        << "\",\"sql_queries\":" << sql
        << ",\"traversal_millis\":" << traversal_millis
        << ",\"wall_millis\":" << wall_millis
        << ",\"signature_match\":" << (signature_match ? "true" : "false")
        << "}";
    return out.str();
  }
};

/// Why this run cannot judge the wall-clock gate; empty when it can.
std::string WallclockGateSkipReason(bool smoke) {
#ifndef NDEBUG
  return "debug build (NDEBUG off)";
#endif
  if (smoke) return "smoke sizes";
  return "";
}

size_t RunWorkload(const Workload& w, bool gate_wallclock, TablePrinter* table,
                   std::vector<BenchRow>* rows, std::ostringstream* json) {
  size_t violations = 0;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++violations;
      std::printf("  [GATE] %s: %s\n", w.name.c_str(), what.c_str());
    }
  };

  PaModel model;
  WarmModel(w, &model);
  model.Freeze();  // every measured pass sees identical estimates

  std::vector<std::pair<TraversalKind, PassMeasure>> arms;
  for (TraversalKind kind : AllTraversalKinds()) {
    arms.emplace_back(kind, MeasurePass(w, kind, /*adaptive=*/false, &model));
  }
  const PassMeasure adaptive = MeasurePass(w, DebuggerOptions{}.strategy,
                                           /*adaptive=*/true, &model);

  const std::string& reference = arms.front().second.signature;
  for (const auto& [kind, m] : arms) {
    const std::string arm(TraversalKindName(kind));
    const bool match = m.signature == reference;
    gate(match, arm + " classifies differently");
    gate(adaptive.sql <= m.sql,
         "adaptive ran more SQL than " + arm + " (" +
             std::to_string(adaptive.sql) + " vs " + std::to_string(m.sql) +
             ")");
    if (gate_wallclock) {
      // 10% relative + 1ms absolute allowance: sub-millisecond workloads
      // (small envs) are pure timer jitter and must not flip the gate.
      gate(adaptive.traversal_millis <= m.traversal_millis * 1.10 + 1.0,
           "adaptive traversal slower than " + arm + " beyond jitter (" +
               Fmt(adaptive.traversal_millis) + "ms vs " +
               Fmt(m.traversal_millis) + "ms)");
    }
    table->AddRow({w.name, arm, std::to_string(m.sql),
                   Fmt(m.traversal_millis), Fmt(m.wall_millis),
                   match ? "yes" : "NO"});
    rows->push_back(
        {w.name, arm, m.sql, m.traversal_millis, m.wall_millis, match});
  }
  const bool adaptive_match = adaptive.signature == reference;
  gate(adaptive_match, "adaptive pass classifies differently");

  table->AddRow({w.name, "adaptive", std::to_string(adaptive.sql),
                 Fmt(adaptive.traversal_millis), Fmt(adaptive.wall_millis),
                 adaptive_match ? "yes" : "NO"});
  rows->push_back({w.name, "adaptive", adaptive.sql,
                   adaptive.traversal_millis, adaptive.wall_millis,
                   adaptive_match});

  *json << "{\"workload\":\"" << w.name
        << "\",\"queries\":" << w.queries.size()
        << ",\"pa_observations\":" << model.observations()
        << ",\"pa_buckets\":[";
  const auto snapshot = model.Snapshot();
  for (size_t i = 0; i < snapshot.size(); ++i) {
    if (i > 0) *json << ',';
    *json << "{\"level\":" << snapshot[i].level
          << ",\"sel_bucket\":" << snapshot[i].sel_bucket
          << ",\"alive\":" << snapshot[i].alive
          << ",\"total\":" << snapshot[i].total
          << ",\"pa\":" << snapshot[i].pa << '}';
  }
  *json << "]}";
  return violations;
}

/// Adaptive mode through the service: the model's counter must be visible
/// in the stats JSON and the shared model must actually observe.
size_t RunServiceCheck(const Workload& w, std::ostringstream* json) {
  size_t violations = 0;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++violations;
      std::printf("  [GATE] service: %s\n", what.c_str());
    }
  };
  ServiceOptions options;
  options.num_workers = 2;
  options.debugger.adaptive = true;
  DebugService service(w.tier->db.get(), w.tier->lattice.get(),
                       w.tier->index.get(), options);
  BatchResult batch = service.RunBatch(w.queries);
  gate(batch.status.ok(),
       "adaptive batch failed: " + batch.status.ToString());
  gate(service.shared_pa_model()->observations() > 0,
       "the shared p_a model never observed");
  const std::string stats_json = ServiceStatsToJson(batch.stats);
  gate(stats_json.find("\"pa_observations\"") != std::string::npos,
       "service stats JSON does not expose pa_observations");
  *json << ",\"service_stats\":" << stats_json;
  return violations;
}

TierEnv BuildDblifeEnv(bool smoke) {
  DblifeConfig config = EnvDblifeConfig();
  if (smoke) config = config.Scaled(0.05);
  auto dataset = GenerateDblife(config);
  KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
  TierEnv env;
  env.name = smoke ? "dblife(0.05x)" : "dblife";
  env.db = std::move(dataset->db);
  env.schema = std::move(dataset->schema);
  LatticeConfig lconfig;
  lconfig.max_joins = smoke ? 2 : 3;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(env.schema, lconfig);
  KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
  env.lattice = std::move(*lattice);
  env.index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*env.db));
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
  return env;
}

std::vector<std::string> RandomQueries(const TierEnv& tier, size_t n) {
  QueryGeneratorConfig config;
  config.seed = 7;
  if (const char* seed_env = std::getenv("KWSDBG_WORKLOAD_SEED")) {
    config.seed = std::strtoull(seed_env, nullptr, 10);
  }
  config.min_keywords = 2;
  config.max_keywords = 3;
  RandomQueryGenerator generator(tier.index.get(), config);
  return generator.Batch(n);
}

int Run(bool smoke, const std::string& out_path) {
  std::printf("Adaptive traversal workload, %s mode\n",
              smoke ? "smoke" : "full");

  const std::string skip_reason = WallclockGateSkipReason(smoke);
  const std::string wallclock_gate =
      skip_reason.empty() ? "gated" : "skipped: " + skip_reason;
  std::printf("wall-clock gate: %s\n", wallclock_gate.c_str());

  const TierEnv dblife = BuildDblifeEnv(smoke);
  const TierEnv ecommerce = BuildEcommerceEnv(smoke);

  Workload table2{&dblife, "dblife-table2", {}};
  for (const WorkloadQuery& q : PaperWorkload()) {
    table2.queries.push_back(q.text);
    if (smoke && table2.queries.size() >= 3) break;
  }
  Workload random{&dblife, "dblife-random",
                  RandomQueries(dblife, smoke ? 4 : 16)};
  Workload shop{&ecommerce, "ecommerce",
                {"saffron candle", "lavender soap"}};
  if (!smoke) shop.queries.push_back("handmade crimson candle");

  size_t violations = 0;
  std::vector<BenchRow> rows;
  TablePrinter table(
      {"workload", "arm", "SQL", "traversal ms", "wall ms", "sig"});
  std::ostringstream workload_jsons;
  bool first = true;
  for (const Workload* w : {&table2, &random, &shop}) {
    if (!first) workload_jsons << ',';
    first = false;
    violations += RunWorkload(*w, skip_reason.empty(), &table, &rows,
                              &workload_jsons);
  }
  table.Print();

  std::ostringstream service_json;
  violations += RunServiceCheck(shop, &service_json);

  {
    std::ostringstream json;
    json << "{\"bench\":\"adaptive_workload\",\"smoke\":"
         << (smoke ? "true" : "false")
         << ",\"wallclock_gate\":\"" << wallclock_gate << '"'
         << ",\"runs\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) json << ',';
      json << rows[i].ToJson();
    }
    json << "],\"workloads\":[" << workload_jsons.str() << ']'
         << service_json.str() << ",\"violations\":" << violations << '}';
    std::ofstream f(out_path);
    if (f) {
      f << json.str() << '\n';
      std::printf("\nwrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }
  }

  if (violations > 0) {
    std::printf("\nADAPTIVE GATE FAILED: %zu violation(s)\n", violations);
    return 1;
  }
  std::printf(
      "\nADAPTIVE GATE OK: model-fed SBH never exceeds any static "
      "strategy's SQL, classifications bit-identical\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_adaptive.json";
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
