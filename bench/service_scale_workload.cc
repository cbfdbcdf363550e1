// Scale-out gate + open-loop load harness for the DebugService worker pool.
// Three phases:
//
//   parity     — serial NonAnswerDebugger vs. an N-worker service on DBLife
//                and the e-commerce catalog under all five traversal
//                strategies: classifications must be bit-identical (worker
//                scheduling and shared-tier state change where verdicts are
//                computed, never what they say).
//   scaling    — closed-loop worker sweep 1 -> N on the one queue:
//                steady-state (warm) batch throughput per worker count.
//                Full release runs gate near-linear scaling whenever the
//                host has the cores to express it (workers beyond the core
//                count timeshare, they don't parallelize); every run gates
//                QPS > 0 (the zero-wall-time regression made this vacuous
//                before). The JSON records whether the scaling gate ran
//                ("gated") or why not ("skipped: <reason>").
//   open-loop  — constant-arrival-rate injection through Submit (arrivals
//                do NOT wait for completions, unlike RunBatch's closed
//                loop, so queueing collapse is observable): sweeps offered
//                rates around the calibrated closed-loop capacity and
//                reports p50/p99/p999 end-to-end latency (queue + exec),
//                shed fraction, and the max sustainable QPS — the highest
//                offered rate whose p99 meets the SLO with <= 1% shed.
//
// Emits BENCH_service_scale.json (per-worker-count scaling rows, scaling
// gate outcome, per-rate open-loop rows, max sustainable QPS, SLO).
//
//   ./service_scale_workload [--smoke] [--workers=N] [--queries=N]
//                            [--out=BENCH_service_scale.json]
//
// --queries is the total open-loop injection budget across the rate sweep
// (default 1,000,000 full / 400 smoke). Environment knobs: KWSDBG_SEED /
// KWSDBG_SCALE / KWSDBG_MAX_LEVEL as in bench_util.h, KWSDBG_WORKLOAD_SEED
// (query sampling, default 7), KWSDBG_SLO_MS (open-loop p99 SLO, default
// 50). Every knob is printed, so any run is reproducible from its log.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

double EnvSloMillis() {
  const char* v = std::getenv("KWSDBG_SLO_MS");
  return v == nullptr ? 50.0 : std::atof(v);
}

constexpr TraversalKind kAllStrategies[] = {
    TraversalKind::kBottomUp, TraversalKind::kTopDown,
    TraversalKind::kBottomUpWithReuse, TraversalKind::kTopDownWithReuse,
    TraversalKind::kScoreBased};

// ---------------------------------------------------------------------------
// Phase 1: serial vs. service parity, all strategies.

size_t ParityCase(const char* name, const Database* db,
                  const Lattice* lattice, const InvertedIndex* index,
                  const std::vector<std::string>& queries, size_t workers) {
  size_t mismatches = 0;
  for (TraversalKind strategy : kAllStrategies) {
    DebuggerOptions debugger_options;
    debugger_options.strategy = strategy;

    std::vector<std::string> serial_sigs;
    serial_sigs.reserve(queries.size());
    {
      NonAnswerDebugger serial(db, lattice, index, debugger_options);
      for (const std::string& q : queries) {
        auto report = serial.Debug(q);
        KWSDBG_CHECK(report.ok()) << report.status().ToString();
        serial_sigs.push_back(report->ClassificationSignature());
      }
    }

    ServiceOptions options;
    options.num_workers = workers;
    options.debugger = debugger_options;
    DebugService service(db, lattice, index, options);
    BatchResult batch = service.RunBatch(queries);
    size_t case_mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryResult& r = batch.results[i];
      if (!r.status.ok()) {
        ++case_mismatches;
        std::printf("  [FAIL] %s/%s \"%s\": %s\n", name,
                    std::string(TraversalKindName(strategy)).c_str(),
                    queries[i].c_str(), r.status.ToString().c_str());
        continue;
      }
      if (r.report.ClassificationSignature() != serial_sigs[i]) {
        ++case_mismatches;
        std::printf("  [FAIL] %s/%s \"%s\": service classification differs\n",
                    name, std::string(TraversalKindName(strategy)).c_str(),
                    queries[i].c_str());
      }
    }
    std::printf("  %s / %-4s: %zu queries, %zu worker(s), %zu mismatch(es)\n",
                name, std::string(TraversalKindName(strategy)).c_str(),
                queries.size(), workers, case_mismatches);
    mismatches += case_mismatches;
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Phase 2: closed-loop worker scaling.

struct ScalingRow {
  size_t workers = 0;
  double qps = 0;
  double p50 = 0;
  double p99 = 0;
};

ScalingRow ScalingPoint(const Database* db, const Lattice* lattice,
                        const InvertedIndex* index,
                        const std::vector<std::string>& queries,
                        size_t workers, size_t repeats) {
  ServiceOptions options;
  options.num_workers = workers;
  DebugService service(db, lattice, index, options);
  // Warm-up pass, then measure steady state: a cold batch's cost is
  // dominated by index builds and SQL that the shared tiers absorb once,
  // so warm batches isolate the queue, handoff, and shared-cache path
  // under concurrency.
  BatchResult warmup = service.RunBatch(queries);
  KWSDBG_CHECK(warmup.status.ok()) << warmup.status.ToString();
  Timer wall;
  ScalingRow row;
  row.workers = workers;
  for (size_t rep = 0; rep < repeats; ++rep) {
    BatchResult batch = service.RunBatch(queries);
    KWSDBG_CHECK(batch.status.ok()) << batch.status.ToString();
    size_t failed = 0;
    for (const QueryResult& r : batch.results) {
      if (!r.status.ok()) ++failed;
    }
    KWSDBG_CHECK(failed == 0) << failed << " queries failed during scaling";
    row.p50 = batch.stats.p50_millis;
    row.p99 = batch.stats.p99_millis;
  }
  row.qps = static_cast<double>(queries.size() * repeats) /
            std::max(wall.ElapsedMillis(), 0.001) * 1000.0;
  return row;
}

/// Why the near-linear scaling gate cannot judge this run, or "" when it
/// can: `parallelism` is the ratio of cores the sweep's last and first
/// points can keep busy.
std::string ScalingGateSkipReason(bool smoke, double parallelism,
                                  size_t workers, size_t cores) {
#ifndef NDEBUG
  return "debug build (NDEBUG off)";
#endif
  if (smoke) return "smoke sizes";
  if (parallelism < 2.0) {
    return std::to_string(workers) + " worker(s) on " + std::to_string(cores) +
           " core(s) cannot express 2x parallelism";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Phase 3: open-loop constant-arrival-rate sweep.

struct OpenLoopRow {
  double offered_qps = 0;    ///< Configured arrival rate.
  double achieved_qps = 0;   ///< Completions / window.
  size_t injected = 0;
  size_t shed = 0;
  double shed_fraction = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;
  bool meets_slo = false;
};

/// Injects `count` queries at a constant `rate` (queries/sec) through
/// Submit — arrivals never wait for completions — and aggregates end-to-end
/// (queue + exec) latency over the completions.
OpenLoopRow OpenLoopPoint(DebugService* service,
                          const std::vector<std::string>& pool, double rate,
                          size_t count, double slo_millis) {
  OpenLoopRow row;
  row.offered_qps = rate;
  row.injected = count;

  std::vector<QueryResult> completions(count);
  std::atomic<size_t> done{0};
  const auto start = std::chrono::steady_clock::now();
  const double interval_ns = 1e9 / rate;
  for (size_t k = 0; k < count; ++k) {
    // Open loop: arrival k fires at start + k/rate regardless of how far
    // behind the service is. sleep_until keeps the schedule drift-free.
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(
                    static_cast<int64_t>(interval_ns * static_cast<double>(k))));
    const size_t slot = k;
    const Status accepted = service->Submit(
        pool[k % pool.size()], /*deadline_millis=*/0,
        [&completions, &done, slot](QueryResult r) {
          completions[slot] = std::move(r);
          done.fetch_add(1, std::memory_order_release);
        });
    if (!accepted.ok()) {
      ++row.shed;
      completions[slot].shed = true;  // excluded from the latency sample
      completions[slot].status = accepted;
      done.fetch_add(1, std::memory_order_release);
    }
  }
  service->WaitIdle();
  KWSDBG_CHECK(done.load() == count) << "lost completions";
  const double window_millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // End-to-end latency: an open-loop client experiences queue wait + exec.
  std::vector<QueryResult> measured = std::move(completions);
  for (QueryResult& r : measured) {
    r.exec_millis += r.queue_millis;
  }
  const ServiceStats stats = ComputeServiceStats(measured, window_millis);
  row.achieved_qps = static_cast<double>(count - row.shed) /
                     std::max(window_millis, 0.001) * 1000.0;
  row.shed_fraction =
      static_cast<double>(row.shed) / static_cast<double>(count);
  row.p50 = stats.p50_millis;
  row.p99 = stats.p99_millis;
  row.p999 = stats.p999_millis;
  row.max = stats.max_millis;
  row.meets_slo = row.p99 <= slo_millis && row.shed_fraction <= 0.01;
  return row;
}

// ---------------------------------------------------------------------------

void WriteJson(const std::string& path, const std::vector<ScalingRow>& scaling,
               const std::string& scaling_gate,
               const std::vector<OpenLoopRow>& open_loop,
               double max_sustainable_qps, double slo_millis, size_t workers,
               uint64_t workload_seed) {
  std::ostringstream out;
  out << "{\"bench\":\"service_scale\",\"workers\":" << workers
      << ",\"workload_seed\":" << workload_seed
      << ",\"slo_millis\":" << slo_millis
      << ",\"max_sustainable_qps\":" << max_sustainable_qps
      << ",\"scaling_gate\":\"" << scaling_gate << '"'
      << ",\"worker_scaling\":[";
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& r = scaling[i];
    if (i > 0) out << ',';
    out << "{\"workers\":" << r.workers << ",\"qps\":" << r.qps
        << ",\"p50_millis\":" << r.p50 << ",\"p99_millis\":" << r.p99
        << '}';
  }
  out << "],\"open_loop\":[";
  for (size_t i = 0; i < open_loop.size(); ++i) {
    const OpenLoopRow& r = open_loop[i];
    if (i > 0) out << ',';
    out << "{\"offered_qps\":" << r.offered_qps
        << ",\"achieved_qps\":" << r.achieved_qps
        << ",\"injected\":" << r.injected << ",\"shed\":" << r.shed
        << ",\"shed_fraction\":" << r.shed_fraction
        << ",\"p50_millis\":" << r.p50 << ",\"p99_millis\":" << r.p99
        << ",\"p999_millis\":" << r.p999 << ",\"max_millis\":" << r.max
        << ",\"meets_slo\":" << (r.meets_slo ? "true" : "false") << '}';
  }
  out << "]}";
  std::ofstream f(path);
  f << out.str() << '\n';
  std::printf("\nwrote %s\n", path.c_str());
}

int Run(size_t workers, size_t open_loop_queries, bool smoke,
        const std::string& out_path) {
  const uint64_t workload_seed = EnvWorkloadSeed();
  const double slo_millis = EnvSloMillis();
  std::printf("# workload seed: %llu, SLO p99 <= %.1f ms (KWSDBG_SLO_MS), "
              "%zu worker(s)\n",
              static_cast<unsigned long long>(workload_seed), slo_millis,
              workers);

  size_t mismatches = 0;

  // DBLife environment, shared by every phase.
  const size_t level = std::min<size_t>(3, EnvMaxLevel());
  BenchEnv env({level});
  QueryGeneratorConfig gconfig;
  gconfig.seed = workload_seed;
  gconfig.min_keywords = 2;
  gconfig.max_keywords = 3;
  RandomQueryGenerator generator(&env.index(), gconfig);

  // --- Phase 1: parity. -----------------------------------------------
  std::printf("\n== parity: serial vs. service, all strategies ==\n");
  {
    const std::vector<std::string> queries = generator.Batch(smoke ? 6 : 16);
    mismatches += ParityCase("DBLife", &env.db(), &env.lattice(level),
                             &env.index(), queries, workers);
  }
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
    QueryGeneratorConfig egconfig;
    egconfig.seed = workload_seed + 1;
    egconfig.min_keywords = 1;
    egconfig.max_keywords = 2;
    RandomQueryGenerator egen(&index, egconfig);
    std::vector<std::string> queries = egen.Batch(smoke ? 5 : 12);
    queries.push_back("saffron candle");  // always cover a dead-MTN frontier
    mismatches += ParityCase("e-commerce", dataset->db.get(), lattice->get(),
                             &index, queries, workers);
  }
  if (mismatches > 0) {
    std::printf("\nPARITY FAILED: %zu classification(s) differ under the "
                "service\n", mismatches);
    return 1;
  }
  std::printf("parity OK: service classifications bit-identical to serial\n");

  // --- Phase 2: closed-loop worker scaling. ---------------------------
  std::printf("\n== closed-loop worker scaling (one queue) ==\n");
  const std::vector<std::string> scaling_queries =
      generator.Batch(smoke ? 16 : 128);
  const size_t scaling_repeats = smoke ? 2 : 16;
  std::vector<ScalingRow> scaling;
  TablePrinter scaling_table({"workers", "qps", "p50 ms", "p99 ms"});
  for (size_t w = 1; w <= workers; w *= 2) {
    ScalingRow row = ScalingPoint(&env.db(), &env.lattice(level),
                                  &env.index(), scaling_queries, w,
                                  scaling_repeats);
    scaling_table.AddRow({std::to_string(row.workers), Fmt(row.qps, 1),
                          Fmt(row.p50, 2), Fmt(row.p99, 2)});
    scaling.push_back(row);
  }
  scaling_table.Print();
  for (const ScalingRow& row : scaling) {
    // QPS-floor gate: a zero here previously meant the wall-clock rounded
    // to 0 and the stats reported a vacuous throughput, not that the
    // service ran infinitely slowly.
    KWSDBG_CHECK(row.qps > 0.0)
        << "worker count " << row.workers << " reported non-positive QPS";
  }
  // Near-linear scale-out gate (full release runs only: debug builds and
  // smoke sizes are dominated by fixed costs). Workers beyond the host's
  // core count timeshare instead of parallelizing, so the gate demands
  // speedup only up to the hardware: on a 1-core container the sweep still
  // runs and gates QPS > 0, but near-linear is unprovable there. Generous
  // constant to stay robust on loaded CI machines.
  const ScalingRow& first = scaling.front();
  const ScalingRow& last = scaling.back();
  const size_t cores = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  const double parallelism =
      static_cast<double>(std::min(last.workers, cores)) /
      static_cast<double>(std::min(first.workers, cores));
  const double speedup = last.qps / std::max(first.qps, 1e-9);
  const double floor = std::max(1.2, 0.4 * parallelism);
  const std::string skip_reason =
      ScalingGateSkipReason(smoke, parallelism, workers, cores);
  const std::string scaling_gate =
      skip_reason.empty() ? "gated" : "skipped: " + skip_reason;
  if (skip_reason.empty()) {
    KWSDBG_CHECK(speedup >= floor)
        << "scale-out collapsed: " << first.workers << " -> " << last.workers
        << " workers sped up only " << speedup << "x (floor " << floor
        << "x, " << cores << " cores)";
    std::printf("scaling gate OK: %zu -> %zu workers = %.2fx (floor %.2fx)\n",
                first.workers, last.workers, speedup, floor);
  } else {
    std::printf("scaling gate %s (measured %.2fx)\n", scaling_gate.c_str(),
                speedup);
  }

  // --- Phase 3: open-loop arrival-rate sweep. --------------------------
  std::printf("\n== open-loop sweep (%zu total arrivals, SLO p99 <= %.1f ms,"
              " shed <= 1%%) ==\n",
              open_loop_queries, slo_millis);
  ServiceOptions options;
  options.num_workers = workers;
  // A bounded queue so past-saturation rates shed instead of queueing
  // without limit (an unbounded open loop never reaches steady state).
  options.max_queue_depth = 512;
  DebugService service(&env.db(), &env.lattice(level), &env.index(), options);

  // Query pool cycled by the injector: small enough that the verdict tiers
  // warm up, as a production service's would.
  const std::vector<std::string> pool = generator.Batch(smoke ? 8 : 64);
  // Calibrate capacity with a warm closed-loop batch, then sweep offered
  // rates around it.
  service.RunBatch(pool);  // warm
  BatchResult calibration = service.RunBatch(pool);
  const double capacity =
      std::max(calibration.stats.queries_per_second, 1.0);
  std::printf("calibrated closed-loop capacity: %.0f qps (warm)\n", capacity);

  const double fractions[] = {0.25, 0.5, 0.75, 0.9, 1.1};
  const size_t per_rate = std::max<size_t>(
      open_loop_queries / (sizeof(fractions) / sizeof(fractions[0])), 10);
  std::vector<OpenLoopRow> open_loop;
  double max_sustainable_qps = 0;
  TablePrinter ol_table({"offered qps", "achieved", "shed %", "p50 ms",
                         "p99 ms", "p999 ms", "SLO"});
  for (const double fraction : fractions) {
    const double rate = std::max(capacity * fraction, 1.0);
    OpenLoopRow row =
        OpenLoopPoint(&service, pool, rate, per_rate, slo_millis);
    ol_table.AddRow({Fmt(row.offered_qps, 0), Fmt(row.achieved_qps, 0),
                     Fmt(row.shed_fraction * 100.0, 2), Fmt(row.p50, 3),
                     Fmt(row.p99, 3), Fmt(row.p999, 3),
                     row.meets_slo ? "ok" : "MISS"});
    if (row.meets_slo) {
      max_sustainable_qps = std::max(max_sustainable_qps, row.achieved_qps);
    }
    open_loop.push_back(row);
  }
  ol_table.Print();
  std::printf("max sustainable: %.0f qps (highest offered rate meeting the "
              "SLO)\n", max_sustainable_qps);
  // At the lowest offered rate the service is far below capacity; if even
  // that misses the SLO the harness (or the service) is broken.
  KWSDBG_CHECK(!open_loop.empty());
  KWSDBG_CHECK(max_sustainable_qps > 0.0)
      << "no offered rate met the SLO — even " << open_loop.front().offered_qps
      << " qps (25% of calibrated capacity) missed p99 <= " << slo_millis
      << " ms or shed > 1%";

  WriteJson(out_path, scaling, scaling_gate, open_loop, max_sustainable_qps,
            slo_millis, workers, workload_seed);
  std::printf("\nSERVICE SCALE OK\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  size_t workers = 4;
  size_t queries = 0;  // 0 = default per mode
  bool smoke = false;
  std::string out_path = "BENCH_service_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--workers=N] [--queries=N] "
                   "[--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (workers == 0) workers = 1;
  if (queries == 0) queries = smoke ? 400 : 1000000;
  return kwsdbg::bench::Run(workers, queries, smoke, out_path);
}
