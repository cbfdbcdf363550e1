#include "service/service_json.h"

#include <sstream>

#include "debugger/report_json.h"

namespace kwsdbg {

std::string ServiceStatsToJson(const ServiceStats& stats) {
  std::ostringstream out;
  out << "{\"queries\":" << stats.queries
      << ",\"truncated\":" << stats.truncated
      << ",\"failed\":" << stats.failed
      << ",\"retries\":" << stats.retries
      << ",\"shed\":" << stats.shed
      << ",\"wall_millis\":" << stats.wall_millis
      << ",\"queries_per_second\":" << stats.queries_per_second
      << ",\"p50_millis\":" << stats.p50_millis
      << ",\"p95_millis\":" << stats.p95_millis
      << ",\"p99_millis\":" << stats.p99_millis
      << ",\"p999_millis\":" << stats.p999_millis
      << ",\"max_millis\":" << stats.max_millis
      << ",\"mean_queue_millis\":" << stats.mean_queue_millis
      << ",\"mutations_applied\":" << stats.mutations_applied
      << ",\"partial_evictions\":" << stats.partial_evictions
      << ",\"index_patches\":" << stats.index_patches
      << ",\"wal_records\":" << stats.wal_records
      << ",\"wal_fsyncs\":" << stats.wal_fsyncs
      << ",\"checkpoints\":" << stats.checkpoints
      << ",\"wal_replayed\":" << stats.wal_replayed
      << ",\"recovery_torn_bytes\":" << stats.recovery_torn_bytes;
  AppendRunCountersJson(&out, stats);
  out << ",\"shared_cache\":{\"entries\":" << stats.shared_cache.entries
      << ",\"hits\":" << stats.shared_cache.hits
      << ",\"misses\":" << stats.shared_cache.misses
      << ",\"insertions\":" << stats.shared_cache.insertions
      << ",\"evictions\":" << stats.shared_cache.evictions << "}}";
  return out.str();
}

std::string BatchResultToJson(const BatchResult& batch, bool include_reports) {
  std::ostringstream out;
  out << "{\"ok\":" << (batch.status.ok() ? "true" : "false");
  if (!batch.status.ok()) {
    out << ",\"error\":\"" << JsonEscape(batch.status.ToString()) << '"';
  }
  out << ",\"stats\":" << ServiceStatsToJson(batch.stats) << ",\"queries\":[";
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResult& r = batch.results[i];
    if (i > 0) out << ',';
    out << "{\"query\":\"" << JsonEscape(r.keyword_query) << '"'
        << ",\"ok\":" << (r.status.ok() ? "true" : "false");
    if (!r.status.ok()) {
      out << ",\"error\":\"" << JsonEscape(r.status.ToString()) << '"';
    }
    out << ",\"truncated\":"
        << (r.status.ok() && r.report.truncated ? "true" : "false")
        << ",\"worker\":" << r.worker
        << ",\"retries\":" << r.retries
        << ",\"shed\":" << (r.shed ? "true" : "false")
        << ",\"queue_millis\":" << r.queue_millis
        << ",\"exec_millis\":" << r.exec_millis;
    if (include_reports && r.status.ok()) {
      out << ",\"report\":" << DebugReportToJson(r.report);
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace kwsdbg
