// JSON export for service-level results, extending the debugger's report
// path (debugger/report_json.h) with batch/throughput telemetry so the same
// consumers that ingest per-query DebugReport JSON can ingest service runs.
#ifndef KWSDBG_SERVICE_SERVICE_JSON_H_
#define KWSDBG_SERVICE_SERVICE_JSON_H_

#include <string>

#include "service/debug_service.h"

namespace kwsdbg {

/// Aggregate stats as a JSON object: throughput, latency percentiles
/// (p50/p95/p99/p999), queue wait, and cache hit tiers.
std::string ServiceStatsToJson(const ServiceStats& stats);

/// Whole batch as a JSON object: `stats` plus a `queries` array with one
/// entry per input query (status, worker, latencies, truncation). With
/// `include_reports`, each entry embeds the full DebugReportToJson payload.
std::string BatchResultToJson(const BatchResult& batch,
                              bool include_reports = false);

}  // namespace kwsdbg

#endif  // KWSDBG_SERVICE_SERVICE_JSON_H_
