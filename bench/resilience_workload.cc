// Resilience gate for the DebugService: replays seeded DBLife + e-commerce
// queries (sampled like the parity phase of service_scale_workload) under a
// fixed fault schedule and checks that
// every resilience layer does its job without ever changing a verdict:
//
//   baseline   — fault-free service run; the parity reference.
//   retry      — counted transient faults across storage / executor / cache
//                with retry budget > total scheduled fires: classifications
//                must stay bit-identical and zero queries may fail.
//   no-retry   — same schedule, retries disabled: affected queries must fail
//                with a typed *retryable* status (never a wrong verdict);
//                untouched queries stay bit-identical.
//   degraded   — an always-on fault on the degrade-don't-fail path
//                (posting lists): bit-identical classifications with a
//                nonzero fallback counter.
//   shed       — bounded admission queue: overload queries rejected with
//                kResourceExhausted, the rest classified identically.
//
// Emits BENCH_resilience.json (throughput, retries, fallbacks, shed) and
// exits nonzero on any parity failure or any phase whose counters prove the
// fault schedule never engaged.
//
//   ./resilience_workload --workers=8 [--smoke] [--out=BENCH_resilience.json]
//
// Environment knobs: KWSDBG_SEED / KWSDBG_SCALE / KWSDBG_MAX_LEVEL as in
// bench_util.h, plus KWSDBG_WORKLOAD_SEED (query sampling, default 7).
// The fault schedules are fixed and printed, so every run is reproducible.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "datasets/ecommerce.h"
#include "datasets/query_generator.h"
#include "service/debug_service.h"
#include "service/service_json.h"
#include "traversal_common.h"

namespace kwsdbg {
namespace bench {
namespace {

uint64_t EnvWorkloadSeed() {
  const char* v = std::getenv("KWSDBG_WORKLOAD_SEED");
  return v == nullptr ? 7 : static_cast<uint64_t>(std::atoll(v));
}

// Counted transient outages in three layers; total fires = 9, so any retry
// budget >= 9 per query is provably unexhaustible by this schedule.
constexpr char kTransientSchedule[] =
    "cache.verdict.lookup=unavailable,times=3;"
    "storage.table.read=unavailable,times=3;"
    "executor.join.probe=resource-exhausted,times=3";
constexpr size_t kTransientFires = 9;

// An always-on fault on the degraded-mode path.
constexpr char kDegradedSchedule[] = "executor.text_index=unavailable";

/// One phase's outcome, for the JSON artifact and the gate verdict.
struct PhaseMetrics {
  std::string phase;
  size_t queries = 0;
  size_t mismatches = 0;  ///< Wrong/missing classifications vs. baseline.
  size_t failed = 0;
  size_t retries = 0;
  size_t shed = 0;
  size_t index_fallbacks = 0;
  size_t fault_fires = 0;
  double wall_millis = 0;
  double qps = 0;

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\"phase\":\"" << phase << "\",\"queries\":" << queries
        << ",\"mismatches\":" << mismatches << ",\"failed\":" << failed
        << ",\"retries\":" << retries << ",\"shed\":" << shed
        << ",\"index_fallbacks\":" << index_fallbacks
        << ",\"fault_fires\":" << fault_fires
        << ",\"wall_millis\":" << wall_millis << ",\"qps\":" << qps << "}";
    return out.str();
  }
};

PhaseMetrics Collect(const char* phase, const BatchResult& batch,
                     const std::vector<std::string>& baseline_sigs,
                     bool failures_expected) {
  PhaseMetrics m;
  m.phase = phase;
  m.queries = batch.results.size();
  m.failed = batch.stats.failed;
  m.retries = batch.stats.retries;
  m.shed = batch.stats.shed;
  m.index_fallbacks = batch.stats.index_fallbacks;
  m.fault_fires = FaultInjector::Global().TotalFires();
  m.wall_millis = batch.stats.wall_millis;
  m.qps = batch.stats.queries_per_second;
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResult& r = batch.results[i];
    if (!r.status.ok()) {
      // A failure is a parity violation unless this phase expects failures
      // AND the status is the typed retryable kind resilience promises.
      if (!failures_expected || !r.status.IsRetryable()) {
        ++m.mismatches;
        std::printf("  [FAIL] %s query %zu: unexpected status %s\n", phase, i,
                    r.status.ToString().c_str());
      }
      continue;
    }
    if (r.report.ClassificationSignature() != baseline_sigs[i]) {
      ++m.mismatches;
      std::printf("  [FAIL] %s query %zu: classification diverged\n", phase,
                  i);
    }
  }
  return m;
}

/// Runs all phases on one dataset; appends metrics and returns the number of
/// gate violations.
size_t RunCase(const char* name, const Database* db, const Lattice* lattice,
               const InvertedIndex* index,
               const std::vector<std::string>& queries, size_t workers,
               std::vector<PhaseMetrics>* all_metrics) {
  std::printf("\n== %s: %zu queries, %zu workers ==\n", name, queries.size(),
              workers);
  size_t violations = 0;
  auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("  [GATE] %s: %s\n", name, what);
    }
  };

  ServiceOptions base_options;
  base_options.num_workers = workers;
  base_options.retry_backoff_base_millis = 0.1;  // Keep gate runs fast.
  base_options.retry_backoff_max_millis = 1.0;

  // Phase 0: fault-free baseline — the reference signatures.
  std::vector<std::string> baseline_sigs;
  {
    DebugService service(db, lattice, index, base_options);
    BatchResult batch = service.RunBatch(queries);
    for (const QueryResult& r : batch.results) {
      KWSDBG_CHECK(r.status.ok()) << r.status.ToString();
      baseline_sigs.push_back(r.report.ClassificationSignature());
    }
    PhaseMetrics m = Collect("baseline", batch, baseline_sigs, false);
    std::printf("  baseline: %s\n", batch.stats.ToString().c_str());
    all_metrics->push_back(m);
    gate(m.mismatches == 0, "baseline inconsistent with itself");
  }

  // Phase 1: transient faults absorbed by retries.
  {
    ScopedFaultInjection faults(kTransientSchedule);
    ServiceOptions options = base_options;
    options.max_retries = kTransientFires + 3;  // Provably unexhaustible.
    DebugService service(db, lattice, index, options);
    BatchResult batch = service.RunBatch(queries);
    PhaseMetrics m = Collect("retry", batch, baseline_sigs, false);
    std::printf("  retry: %zu fire(s) absorbed by %zu retried attempt(s) "
                "[%s]\n",
                m.fault_fires, m.retries,
                FaultInjector::Global().Summary().c_str());
    all_metrics->push_back(m);
    gate(m.mismatches == 0, "retry phase changed a classification");
    gate(m.failed == 0, "retry phase failed a query despite budget");
    gate(m.fault_fires > 0, "transient schedule never fired");
    gate(m.retries > 0, "faults fired but nothing was retried");
  }

  // Phase 2: same schedule, retries disabled — typed failures, no lies.
  {
    ScopedFaultInjection faults(kTransientSchedule);
    ServiceOptions options = base_options;
    options.max_retries = 0;
    DebugService service(db, lattice, index, options);
    BatchResult batch = service.RunBatch(queries);
    PhaseMetrics m = Collect("no_retry", batch, baseline_sigs, true);
    std::printf("  no-retry: %zu typed failure(s) from %zu fire(s)\n",
                m.failed, m.fault_fires);
    all_metrics->push_back(m);
    gate(m.mismatches == 0,
         "no-retry phase produced a wrong verdict or untyped failure");
    gate(m.failed > 0, "no-retry phase absorbed faults it cannot retry");
    gate(m.retries == 0, "retries happened with max_retries=0");
  }

  // Phase 3: degraded mode — slow paths, identical verdicts.
  {
    ScopedFaultInjection faults(kDegradedSchedule);
    DebugService service(db, lattice, index, base_options);
    BatchResult batch = service.RunBatch(queries);
    PhaseMetrics m = Collect("degraded", batch, baseline_sigs, false);
    std::printf("  degraded: %zu index fallback(s)\n", m.index_fallbacks);
    all_metrics->push_back(m);
    gate(m.mismatches == 0, "degraded phase changed a classification");
    gate(m.failed == 0, "degraded phase failed a query");
    gate(m.index_fallbacks > 0, "degraded phase never took a fallback path");
  }

  // Phase 4: overload — bounded queue sheds typed, the rest classify true.
  {
    ServiceOptions options = base_options;
    options.num_workers = 1;
    options.max_queue_depth = 1;
    DebugService service(db, lattice, index, options);
    BatchResult batch = service.RunBatch(queries);
    PhaseMetrics m = Collect("shed", batch, baseline_sigs, true);
    std::printf("  shed: %zu of %zu quer(ies) rejected by admission "
                "control\n",
                m.shed, m.queries);
    all_metrics->push_back(m);
    gate(m.mismatches == 0,
         "shed phase produced a wrong verdict or untyped rejection");
    gate(m.shed > 0, "bounded queue never shed under overload");
    gate(m.shed == m.failed, "failures beyond the shed queries");
  }

  return violations;
}

int Run(size_t workers, bool smoke, const std::string& out_path) {
  const uint64_t workload_seed = EnvWorkloadSeed();
  std::printf("# workload seed: %llu (override with KWSDBG_WORKLOAD_SEED)\n",
              static_cast<unsigned long long>(workload_seed));
  std::printf("# transient schedule: %s\n# degraded schedule: %s\n",
              kTransientSchedule, kDegradedSchedule);

  size_t violations = 0;
  std::vector<PhaseMetrics> dblife_metrics;
  std::vector<PhaseMetrics> ecommerce_metrics;

  // Case 1: DBLife.
  {
    const size_t level = std::min<size_t>(smoke ? 3 : 5, EnvMaxLevel());
    BenchEnv env({level});
    QueryGeneratorConfig gconfig;
    gconfig.seed = workload_seed;
    gconfig.min_keywords = 2;
    gconfig.max_keywords = 3;
    RandomQueryGenerator generator(&env.index(), gconfig);
    const std::vector<std::string> queries = generator.Batch(smoke ? 6 : 24);
    violations += RunCase("DBLife", &env.db(), &env.lattice(level),
                          &env.index(), queries, workers, &dblife_metrics);
  }

  // Case 2: e-commerce catalog, always including the paper's motivating
  // non-answer so the gate covers a dead-MTN frontier under faults.
  {
    EcommerceConfig config;
    config.seed = workload_seed;
    config.num_items = smoke ? 200 : 500;
    auto dataset = GenerateEcommerce(config);
    KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
    InvertedIndex index = InvertedIndex::Build(*dataset->db);
    LatticeConfig lconfig;
    lconfig.max_joins = 2;
    lconfig.num_keyword_copies = 2;
    auto lattice = LatticeGenerator::Generate(dataset->schema, lconfig);
    KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
    QueryGeneratorConfig gconfig;
    gconfig.seed = workload_seed + 1;
    gconfig.min_keywords = 1;
    gconfig.max_keywords = 2;
    RandomQueryGenerator generator(&index, gconfig);
    std::vector<std::string> queries = generator.Batch(smoke ? 5 : 15);
    queries.push_back("saffron candle");
    violations += RunCase("e-commerce", dataset->db.get(), lattice->get(),
                          &index, queries, workers, &ecommerce_metrics);
  }

  // Artifact.
  {
    std::ostringstream json;
    auto dump = [&json](const char* name,
                        const std::vector<PhaseMetrics>& metrics) {
      json << '"' << name << "\":[";
      for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) json << ',';
        json << metrics[i].ToJson();
      }
      json << ']';
    };
    json << "{\"bench\":\"resilience_workload\",\"workload_seed\":"
         << workload_seed << ",\"smoke\":" << (smoke ? "true" : "false")
         << ",\"transient_schedule\":\"" << kTransientSchedule
         << "\",\"degraded_schedule\":\"" << kDegradedSchedule << "\",";
    dump("dblife", dblife_metrics);
    json << ',';
    dump("ecommerce", ecommerce_metrics);
    json << ",\"violations\":" << violations << '}';
    std::ofstream f(out_path);
    if (f) {
      f << json.str() << '\n';
      std::printf("\nwrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }
  }

  if (violations > 0) {
    std::printf("\nRESILIENCE GATE FAILED: %zu violation(s)\n", violations);
    return 1;
  }
  std::printf("\nRESILIENCE GATE OK: parity held through retry, no-retry, "
              "degraded, and shed phases\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  size_t workers = 8;
  bool smoke = false;
  std::string out_path = "BENCH_resilience.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--workers=N] [--smoke] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (workers == 0) workers = 1;
  return kwsdbg::bench::Run(workers, smoke, out_path);
}
