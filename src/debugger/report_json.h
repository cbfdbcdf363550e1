// Machine-readable (JSON) rendering of DebugReport, so the debugger can sit
// behind a dashboard or CI check instead of a terminal.
#ifndef KWSDBG_DEBUGGER_REPORT_JSON_H_
#define KWSDBG_DEBUGGER_REPORT_JSON_H_

#include <ostream>
#include <string>

#include "common/counter_table.h"
#include "debugger/debug_report.h"

namespace kwsdbg {

/// Serializes the report as a single JSON object:
/// {
///   "query": "...", "keywords": [...], "missing_keywords": [...],
///   "interpretations": [{
///     "binding": "...",
///     "stats": {"sql_queries": N, "sql_millis": X, ...},
///     "answers": [{"network": "...", "sql": "...", "level": N}],
///     "non_answers": [{"network": "...", "sql": "...", "level": N,
///                      "mpans": [{"network": "...", "sql": "..."}]}]
///   }]
/// }
/// Strings are escaped per RFC 8259; the output has no trailing newline.
std::string DebugReportToJson(const DebugReport& report);

/// Escapes one string for embedding in JSON (exposed for tests).
std::string JsonEscape(const std::string& s);

/// Writes `,"name":value` for every KWSDBG_TRAVERSAL_COUNTERS row of `stats`
/// (a TraversalStats or a ServiceStats), in table order.
template <typename Stats>
void AppendRunCountersJson(std::ostream* out, const Stats& stats) {
#define KWSDBG_COUNTER_JSON(name, kind, doc) \
  *out << ",\"" #name "\":" << stats.name;
  KWSDBG_TRAVERSAL_COUNTERS(KWSDBG_COUNTER_JSON)
#undef KWSDBG_COUNTER_JSON
}

}  // namespace kwsdbg

#endif  // KWSDBG_DEBUGGER_REPORT_JSON_H_
