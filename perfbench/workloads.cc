#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "trace.h"

namespace kwsdbg::perfbench {

namespace {
constexpr double kMinTraceCoverage = 0.9;
}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

void AddProcessMetrics(double setup_s, Outcome* out) {
  out->Add("setup_s", setup_s, "s");
  out->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

void AddLayerMetrics(const LayerTotals& t, bool gate_coverage, Outcome* out) {
  const double n = t.requests > 0 ? static_cast<double>(t.requests) : 1.0;
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  out->Add("datasets.generate_s", t.setup.generate_s, "s");
  out->Add("text.index_build_s", t.setup.index_build_s, "s");
  out->Add("lattice.generate_s", t.setup.lattice_s, "s");
  out->Add("storage.spill_share", ratio(t.setup.spill_s, t.setup_s), "ratio");
  out->Add("kws.bind_ms", t.bind_ms / n, "ms");
  out->Add("kws.prune_ms", t.prune_ms / n, "ms");
  out->Add("kws.retained_nodes", t.retained_nodes / n, "count");
  out->Add("traversal.self_ms", t.traversal_ms / n, "ms");
  out->Add("traversal.sql_queries", t.sql_queries / n, "count");
  out->Add("traversal.cache_hit_ratio",
           ratio(t.cache_hits, t.cache_hits + t.cache_misses), "ratio");
  out->Add("sql.exec_ms", t.sql_ms / n, "ms");
  out->Add("sql.rows_probed", t.rows_probed / n, "count");
  out->Add("sql.rows_filtered", t.rows_filtered / n, "count");
  out->Add("sql.semijoin_kill_ratio", ratio(t.semijoin_kills, t.sql_queries),
           "ratio");
  out->Add("sql.index_build_ms", t.index_build_ms, "ms");
  out->Add("storage.page_hits", t.page_hits / n, "count");
  out->Add("storage.page_reads", t.page_reads / n, "count");
  out->Add("storage.page_evictions", t.page_evictions / n, "count");
  out->Add("storage.pool_hit_ratio",
           ratio(t.page_hits, t.page_hits + t.pool_misses), "ratio");
  out->Add("text.posting_reads", t.posting_reads / n, "count");
  out->Add("debugger.report_ms", t.report_ms / n, "ms");
  out->Add("service.queue_share", ratio(t.queue_ms, t.wall_ms), "ratio");
  out->Add("service.handoff_share", ratio(t.handoff_ms, t.wall_ms), "ratio");
  out->Add("service.worker_busy_ratio", t.worker_busy_ratio, "ratio");
  out->Add("service.evictions_per_write",
           ratio(t.write_evictions, t.writes), "count");
  // The layer split is only valid if the layers account for the request.
  const double coverage = ratio(t.wall_ms - t.unattributed_ms, t.wall_ms);
  if (gate_coverage) out->Check(coverage >= kMinTraceCoverage);
  out->Add("trace.coverage", coverage, "ratio");
  out->Add("trace.overhead", 1.0 - ratio(t.traced_qps, t.untraced_qps),
           "ratio");

  // The same split as a table, with the service-only figures that have no
  // value on the single-client workloads.
  char line[200];
  std::snprintf(line, sizeof(line),
                "layer split over %zu traced requests (%.4f ms each):",
                t.requests, t.wall_ms / n);
  out->Note(line);
  const std::pair<const char*, double> rows[] = {
      {"service.queue", t.queue_ms},       {"service.handoff", t.handoff_ms},
      {"service.exec", t.service_exec_ms}, {"kws.bind", t.bind_ms},
      {"kws.prune", t.prune_ms},           {"traversal.self", t.traversal_ms},
      {"sql.exec", t.sql_ms},              {"debugger.report", t.report_ms},
      {"unattributed", t.unattributed_ms}};
  for (const auto& [name, ms] : rows) {
    std::snprintf(line, sizeof(line), "  %-18s %10.4f ms/request  %6.2f%%",
                  name, ms / n, 100.0 * ratio(ms, t.wall_ms));
    out->Note(line);
  }
  std::snprintf(line, sizeof(line),
                "  set-up: generate %.3f s, index %.3f s, lattice %.3f s, "
                "spill %.3f s of %.3f s",
                t.setup.generate_s, t.setup.index_build_s, t.setup.lattice_s,
                t.setup.spill_s, t.setup_s);
  out->Note(line);
  if (t.writes > 0) {
    std::snprintf(line, sizeof(line),
                  "  writes: %zu, apply p50 %.4f ms, %zu verdict evictions",
                  t.writes, t.apply_p50_ms, t.write_evictions);
    out->Note(line);
  }
}

void RecordEnv(const Env& env, Outcome* out) {
  out->Record("data", "{\"dataset\":\"dblife\",\"scale\":1,\"data_seed\":" +
                          std::to_string(kDataSeed) + ",\"tuples\":" +
                          std::to_string(env.db()->TotalTuples()) +
                          ",\"table_bytes\":" +
                          std::to_string(env.footprint_bytes) +
                          ",\"lattice_level\":" +
                          std::to_string(kLatticeLevel) + ",\"lattice_nodes\":" +
                          std::to_string(env.lattice->num_nodes()) + "}");
  out->Record("buffer_pool",
              "{\"footprint_bytes\":" + std::to_string(env.footprint_bytes) +
                  ",\"budget_bytes\":" + std::to_string(env.budget_bytes) +
                  ",\"frames\":" + std::to_string(env.pool_frames) + "}");
}

double PeakRssMib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace kwsdbg::perfbench
