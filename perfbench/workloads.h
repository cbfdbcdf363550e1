// The benchmark's workloads and the result they hand back to main().
#ifndef KWSDBG_PERFBENCH_WORKLOADS_H_
#define KWSDBG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "env.h"

namespace kwsdbg::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string scratch_dir = ".";  ///< Page and posting files (spilled).
  std::string trace_out;          ///< Chrome trace path ("" = none).
  int64_t start_ns = 0;           ///< Process start, for setup_s.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Provenance and sizes as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Human-readable detail printed above the result line.
  std::vector<std::string> notes;
  /// Raw timings of the window as a JSON object ("" = none), from which
  /// run.py computes the latency and throughput metrics.
  std::string samples;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  void Record(std::string key, std::string json_value) {
    provenance.emplace_back(std::move(key), std::move(json_value));
  }
  /// Counts one checked operation; `ok == false` makes it a failure.
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// `paper` (resident) and `spilled` (out of core): Table 2 Q1-Q10 under the
/// five paper strategies, one warm cache-less session per strategy, one
/// client.
Status RunPaperWorkload(const Args& args, bool spill, Outcome* out);

/// `served`: a mutable DebugService under a closed-loop Zipf-skewed hot set
/// with a small share of live writes.
Status RunServedWorkload(const Args& args, Outcome* out);

/// Totals a traced run collects; AddLayerMetrics turns them into the
/// per-layer metrics (per request where the unit is per request).
struct LayerTotals {
  size_t requests = 0;
  SetupTimes setup;
  double setup_s = 0;
  double index_build_ms = 0;   ///< Join-index builds, warm-up + window.
  double wall_ms = 0;          ///< Request wall time.
  double unattributed_ms = 0;  ///< Part of wall_ms no layer accounts for.
  double bind_ms = 0;
  double prune_ms = 0;
  double traversal_ms = 0;     ///< Self time: strategy run minus SQL.
  double sql_ms = 0;
  double report_ms = 0;        ///< Report assembly (not measured on served).
  size_t retained_nodes = 0;
  size_t sql_queries = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t rows_probed = 0;
  size_t rows_filtered = 0;
  size_t semijoin_kills = 0;
  size_t page_hits = 0;
  size_t page_reads = 0;
  size_t page_evictions = 0;
  size_t pool_misses = 0;
  size_t posting_reads = 0;
  // Service layer (`served` only).
  double queue_ms = 0;
  double service_exec_ms = 0;  ///< Worker time outside Debug().
  double handoff_ms = 0;       ///< Submit->callback minus queue and exec.
  double worker_busy_ratio = 0;
  size_t writes = 0;
  size_t write_evictions = 0;
  double apply_p50_ms = 0;
  double untraced_qps = 0;
  double traced_qps = 0;
};

/// Adds every per-layer metric. With `gate_coverage`, a split whose layers
/// account for less than 90% of request wall time counts a failed
/// operation: that holds where spans wrap every layer call.
void AddLayerMetrics(const LayerTotals& totals, bool gate_coverage,
                     Outcome* out);

// Shared helpers (workloads.cc).

/// Nearest-rank percentile of `sorted` (ascending); NaN when empty.
double Percentile(const std::vector<double>& sorted, double q);

/// Adds the end-to-end metrics one process measures by itself: set-up time
/// and peak resident memory. run.py takes each one's median over its
/// processes.
void AddProcessMetrics(double setup_s, Outcome* out);

/// Records the data and buffer-pool sizes of `env` as provenance.
void RecordEnv(const Env& env, Outcome* out);

/// Peak resident set size of the process so far, in MiB.
double PeakRssMib();

/// Seconds elapsed since `start_ns` (a NowNs() reading).
double SecondsSince(int64_t start_ns);

std::string JsonString(const std::string& s);

/// A JSON number; a non-finite value (a failed request's latency) is null,
/// and such a run is already marked incorrect.
std::string JsonNumber(double value);

/// A JSON array of JsonNumber()s.
std::string JsonNumbers(const std::vector<double>& values);

}  // namespace kwsdbg::perfbench

#endif  // KWSDBG_PERFBENCH_WORKLOADS_H_
