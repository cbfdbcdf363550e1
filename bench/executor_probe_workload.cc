// Executor probe workload: the scan-based executor configuration against
// the default one on the existence probes the debugger issues, plus an
// existence microbench of the join-index probe loop.
//
// Two halves, both gated:
//
//   parity    — DBLife + e-commerce debugger workloads replayed under all
//               five traversal strategies with two executor variants: v1
//               (LIKE-scan keyword candidates) and default (posting-list
//               candidates). The session verdict cache is off so every
//               SQL probe reaches the executor. The A(K)/N(K)/MPAN
//               classification signature must be bit-identical between the
//               variants; the default runs must never fall back to a full
//               keyword scan, must probe flat indexes, and (full mode) must
//               open prefetch windows.
//   existence — a probe-heavy existence microbench (does any row carry
//               this join key?) over a synthetic duplicate-heavy column:
//               ~half the keys miss, per-rep timings of per-key
//               FlatRowIndex::Lookup and of a prefetch window
//               (PrefetchBucket + LookupHashed) interleaved. Hit counts must
//               agree, and on a full release run the prefetched median must
//               be at least kMinSpeedup x faster.
//
// Emits BENCH_executor.json (per-variant counters, per-rep timings, median
// speedup, "speedup_gate": "gated" or "skipped: <reason>", violations) and
// exits nonzero on any violated gate.
//
//   ./executor_probe_workload [--smoke] [--out=BENCH_executor.json]
//
// --smoke replays the toy product DB and a small e-commerce catalog with a
// small microbench (the ctest gate). Environment knobs: KWSDBG_SEED /
// KWSDBG_SCALE / KWSDBG_MAX_LEVEL as in bench_util.h. The microbench seed
// is fixed and printed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/counter_table.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datasets/ecommerce.h"
#include "datasets/toy_product_db.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "lattice/lattice_generator.h"
#include "sql/flat_row_index.h"

namespace kwsdbg {
namespace bench {
namespace {

constexpr double kMinSpeedup = 1.2;
constexpr uint64_t kMicroSeed = 0xBEEFCAFEull;

/// One dataset + lattice + keyword queries to replay.
struct ProbeEnv {
  std::string name;
  const Database* db = nullptr;
  const Lattice* lattice = nullptr;
  const InvertedIndex* index = nullptr;
  std::vector<std::string> queries;
};

struct VariantRun {
  std::string signature;  ///< ClassificationSignature over every query.
  TraversalStats stats;
  double millis = 0;
};

/// Replays the env's queries; `v1` turns off index-sourced candidates.
VariantRun RunVariant(const ProbeEnv& env, TraversalKind kind, bool v1) {
  DebuggerOptions options;
  options.strategy = kind;
  options.verdict_cache_capacity = 0;  // measure raw probes, not the cache
  options.executor.use_text_index = !v1;
  NonAnswerDebugger debugger(env.db, env.lattice, env.index, options);
  VariantRun run;
  Timer timer;
  for (const std::string& query : env.queries) {
    auto report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    run.signature += report->ClassificationSignature();
    run.signature += '\n';
    AddRunCounters(&run.stats, report->AggregateTraversalStats());
  }
  run.millis = timer.ElapsedMillis();
  return run;
}

/// One (env, strategy, variant) record for the JSON artifact.
struct BenchRow {
  std::string env;
  std::string strategy;
  std::string variant;
  VariantRun run;
  bool signature_match = false;

  std::string ToJson() const {
    const TraversalStats& s = run.stats;
    std::ostringstream out;
    out << "{\"env\":\"" << env << "\",\"strategy\":\"" << strategy
        << "\",\"variant\":\"" << variant
        << "\",\"sql_queries\":" << s.sql_queries
        << ",\"posting_hits\":" << s.posting_hits
        << ",\"scan_fallbacks\":" << s.scan_fallbacks
        << ",\"rows_probed\":" << s.rows_probed
        << ",\"index_builds\":" << s.index_builds
        << ",\"flat_probes\":" << s.flat_probes
        << ",\"prefetch_batches\":" << s.prefetch_batches
        << ",\"index_build_millis\":" << s.index_build_millis
        << ",\"arena_bytes\":" << s.arena_bytes
        << ",\"millis\":" << run.millis
        << ",\"signature_match\":" << (signature_match ? "true" : "false")
        << "}";
    return out.str();
  }
};

/// Runs both variants over one env; appends rows, returns violations.
size_t RunEnv(const ProbeEnv& env, TablePrinter* table,
              std::vector<BenchRow>* rows, size_t* prefetch_batches) {
  size_t violations = 0;
  const TraversalKind kinds[] = {
      TraversalKind::kBottomUp, TraversalKind::kTopDown,
      TraversalKind::kBottomUpWithReuse, TraversalKind::kTopDownWithReuse,
      TraversalKind::kScoreBased};
  for (TraversalKind kind : kinds) {
    const std::string strategy(TraversalKindName(kind));
    auto gate = [&](bool ok, const std::string& what) {
      if (!ok) {
        ++violations;
        std::printf("  [GATE] %s/%s: %s\n", env.name.c_str(),
                    strategy.c_str(), what.c_str());
      }
    };
    const VariantRun v1 = RunVariant(env, kind, /*v1=*/true);
    const VariantRun def = RunVariant(env, kind, /*v1=*/false);
    const bool match = v1.signature == def.signature;
    gate(match, "v1 and default classify the workload differently");
    gate(def.stats.scan_fallbacks == 0,
         "indexed path fell back to " +
             std::to_string(def.stats.scan_fallbacks) +
             " full keyword scan(s)");
    gate(def.stats.flat_probes > 0, "never probed a flat index");
    *prefetch_batches += def.stats.prefetch_batches;
    auto add_row = [&](const char* variant, const VariantRun& run) {
      table->AddRow({env.name, strategy, variant,
                     std::to_string(run.stats.sql_queries),
                     std::to_string(run.stats.posting_hits),
                     std::to_string(run.stats.scan_fallbacks),
                     std::to_string(run.stats.rows_probed),
                     std::to_string(run.stats.flat_probes),
                     std::to_string(run.stats.prefetch_batches),
                     Fmt(run.millis)});
      rows->push_back({env.name, strategy, variant, run, match});
    };
    add_row("v1", v1);
    add_row("default", def);
  }
  return violations;
}

/// Probe-heavy existence microbench: one duplicate-heavy join column,
/// `num_probes` keys (~half misses), counting keys with at least one row.
struct ExistenceResult {
  size_t rows = 0;
  size_t probes = 0;
  size_t reps = 0;
  size_t hits = 0;
  std::vector<double> plain_millis;
  std::vector<double> prefetched_millis;
  double plain_median = 0;
  double prefetched_median = 0;
  double speedup = 0;
  size_t violations = 0;
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

ExistenceResult RunExistenceWorkload(size_t num_rows, size_t num_probes,
                                     size_t reps) {
  ExistenceResult r;
  r.rows = num_rows;
  r.probes = num_probes;
  r.reps = reps;

  Rng rng(kMicroSeed);
  Schema schema({{"fk", DataType::kInt64}});
  Table table("probe_side", std::move(schema));
  for (size_t i = 0; i < num_rows; ++i) {
    table.AppendRowUnchecked(
        {Value(static_cast<int64_t>(rng.Uniform(num_rows)))});
  }
  std::vector<Value> probes;
  probes.reserve(num_probes);
  for (size_t i = 0; i < num_probes; ++i) {
    // Keys in [0, 2 * num_rows): roughly half probe for absent keys, the
    // miss-heavy shape of dead-network existence checks.
    probes.emplace_back(static_cast<int64_t>(rng.Uniform(2 * num_rows)));
  }

  Timer build_timer;
  const FlatRowIndex index = FlatRowIndex::Build(table, 0);
  std::printf("  flat build: %.2f ms, %zu key(s), arena %zu bytes, "
              "buckets %zu bytes\n",
              build_timer.ElapsedMillis(), index.num_keys(),
              index.stats().arena_bytes, index.stats().bucket_bytes);

  auto run_plain = [&]() {
    size_t hits = 0;
    for (const Value& v : probes) {
      if (!index.Lookup(v).empty()) ++hits;
    }
    return hits;
  };
  // Hash a window of probe keys, prefetch their buckets, drain the window in
  // order. Executor::RunJoin's backtracking frames prefetch the same way but
  // probe through Lookup, which hashes the key again.
  constexpr size_t kWindow = 16;
  auto run_prefetched = [&]() {
    size_t hits = 0;
    uint64_t win_hash[kWindow];
    for (size_t i = 0; i < probes.size(); i += kWindow) {
      const size_t w = std::min(kWindow, probes.size() - i);
      for (size_t j = 0; j < w; ++j) {
        win_hash[j] = probes[i + j].Hash64();
        index.PrefetchBucket(win_hash[j]);
      }
      for (size_t j = 0; j < w; ++j) {
        if (!index.LookupHashed(win_hash[j], probes[i + j]).empty()) ++hits;
      }
    }
    return hits;
  };

  // One untimed warmup of each loop, then interleaved timed reps so
  // neither side benefits from running last with a hot cache.
  r.hits = run_plain();
  if (run_prefetched() != r.hits) ++r.violations;
  for (size_t rep = 0; rep < reps; ++rep) {
    Timer plain_timer;
    const size_t plain_hits = run_plain();
    r.plain_millis.push_back(plain_timer.ElapsedMillis());
    Timer prefetched_timer;
    const size_t prefetched_hits = run_prefetched();
    r.prefetched_millis.push_back(prefetched_timer.ElapsedMillis());
    if (plain_hits != r.hits || prefetched_hits != r.hits) {
      ++r.violations;
      std::printf("  [GATE] existence rep %zu: hit counts diverged "
                  "(plain=%zu prefetched=%zu expect=%zu)\n",
                  rep, plain_hits, prefetched_hits, r.hits);
    }
  }
  r.plain_median = Median(r.plain_millis);
  r.prefetched_median = Median(r.prefetched_millis);
  r.speedup = r.prefetched_median > 0 ? r.plain_median / r.prefetched_median
                                      : 0;
  return r;
}

/// Why this run cannot judge the speedup gate; empty when it can.
std::string SpeedupGateSkipReason(bool smoke) {
#ifndef NDEBUG
  return "debug build (NDEBUG off)";
#endif
  if (smoke) return "smoke sizes";
  return "";
}

std::string JsonArray(const std::vector<double>& xs) {
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out << ',';
    out << xs[i];
  }
  out << ']';
  return out.str();
}

int Run(bool smoke, const std::string& out_path) {
  const std::string skip_reason = SpeedupGateSkipReason(smoke);
  const std::string speedup_gate =
      skip_reason.empty() ? "gated" : "skipped: " + skip_reason;
  std::printf("Executor probe workload: v1 (LIKE scans) vs default "
              "(posting lists), verdict cache off\n"
              "speedup gate: %s\n",
              speedup_gate.c_str());

  size_t violations = 0;
  std::vector<BenchRow> rows;
  size_t prefetch_batches = 0;
  TablePrinter table({"env", "strategy", "variant", "SQL", "posting",
                      "scans", "rows probed", "flat probes", "batches",
                      "ms"});

  LatticeConfig small_lattice;
  small_lattice.max_joins = 2;
  small_lattice.num_keyword_copies = 2;

  // Parity half. Each block owns its dataset; rows/violations accumulate.
  if (smoke) {
    auto toy = BuildToyProductDatabase();
    KWSDBG_CHECK(toy.ok()) << toy.status().ToString();
    auto lattice = LatticeGenerator::Generate(toy->schema, small_lattice);
    KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
    InvertedIndex index = InvertedIndex::Build(*toy->db);
    ProbeEnv env;
    env.name = "toy";
    env.db = toy->db.get();
    env.lattice = lattice->get();
    env.index = &index;
    env.queries = {"saffron candle", "scented candle", "red candle"};
    violations += RunEnv(env, &table, &rows, &prefetch_batches);
  } else {
    const size_t level = std::min<size_t>(5, EnvMaxLevel());
    BenchEnv dblife({level});
    ProbeEnv paper;
    paper.name = "dblife L" + std::to_string(level);
    paper.db = &dblife.db();
    paper.lattice = &dblife.lattice(level);
    paper.index = &dblife.index();
    for (const WorkloadQuery& q : PaperWorkload()) {
      paper.queries.push_back(q.text);
    }
    violations += RunEnv(paper, &table, &rows, &prefetch_batches);
  }
  {
    EcommerceConfig shop_config;
    shop_config.num_items = smoke ? 120 : 500;
    auto shop = GenerateEcommerce(shop_config);
    KWSDBG_CHECK(shop.ok()) << shop.status().ToString();
    auto shop_lattice = LatticeGenerator::Generate(shop->schema,
                                                   small_lattice);
    KWSDBG_CHECK(shop_lattice.ok()) << shop_lattice.status().ToString();
    InvertedIndex shop_index = InvertedIndex::Build(*shop->db);
    ProbeEnv ecommerce;
    ecommerce.name = "ecommerce";
    ecommerce.db = shop->db.get();
    ecommerce.lattice = shop_lattice->get();
    ecommerce.index = &shop_index;
    ecommerce.queries = {"saffron candle", "lavender soap"};
    if (!smoke) {
      ecommerce.queries.push_back("azure diffuser");
      ecommerce.queries.push_back("handmade crimson candle");
    }
    violations += RunEnv(ecommerce, &table, &rows, &prefetch_batches);
  }
  table.Print();
  if (!smoke && prefetch_batches == 0) {
    ++violations;
    std::printf("[GATE] batched probe pipeline never issued a prefetch "
                "window on the full workload\n");
  }

  // Existence half.
  std::printf("\nExistence microbench (seed %#llx):\n",
              static_cast<unsigned long long>(kMicroSeed));
  const ExistenceResult ex =
      smoke ? RunExistenceWorkload(1u << 14, 1u << 13, 3)
            : RunExistenceWorkload(1u << 21, 1u << 20, 7);
  violations += ex.violations;
  std::printf("  %zu rows, %zu probes, %zu rep(s): plain median %.2f ms, "
              "prefetched median %.2f ms, speedup %.2fx\n",
              ex.rows, ex.probes, ex.reps, ex.plain_median,
              ex.prefetched_median, ex.speedup);
  if (skip_reason.empty() && ex.speedup < kMinSpeedup) {
    ++violations;
    std::printf("[GATE] median speedup %.2fx below the %.1fx floor\n",
                ex.speedup, kMinSpeedup);
  }

  // Artifact.
  {
    std::ostringstream json;
    json << "{\"bench\":\"executor_probe_workload\",\"smoke\":"
         << (smoke ? "true" : "false") << ",\"speedup_gate\":\""
         << speedup_gate << "\",\"runs\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) json << ',';
      json << rows[i].ToJson();
    }
    json << "],\"existence\":{\"rows\":" << ex.rows
         << ",\"probes\":" << ex.probes << ",\"reps\":" << ex.reps
         << ",\"hits\":" << ex.hits
         << ",\"plain_millis\":" << JsonArray(ex.plain_millis)
         << ",\"prefetched_millis\":" << JsonArray(ex.prefetched_millis)
         << ",\"plain_median_millis\":" << ex.plain_median
         << ",\"prefetched_median_millis\":" << ex.prefetched_median
         << ",\"speedup\":" << ex.speedup
         << ",\"min_speedup\":" << kMinSpeedup
         << "},\"violations\":" << violations << '}';
    std::ofstream f(out_path);
    if (f) {
      f << json.str() << '\n';
      std::printf("\nwrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }
  }

  if (violations > 0) {
    std::printf("\nEXECUTOR PROBE GATE FAILED: %zu violation(s)\n",
                violations);
    return 1;
  }
  std::printf("\nEXECUTOR PROBE GATE OK: classifications identical across "
              "all strategies, zero scan fallbacks on the indexed path; "
              "speedup gate %s\n",
              speedup_gate.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_executor.json";
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
