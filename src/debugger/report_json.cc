#include "debugger/report_json.h"

#include <cstdio>
#include <sstream>

namespace kwsdbg {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

void AppendString(std::ostringstream* out, const std::string& s) {
  *out << '"' << JsonEscape(s) << '"';
}

void AppendStringArray(std::ostringstream* out,
                       const std::vector<std::string>& items) {
  *out << '[';
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) *out << ',';
    AppendString(out, items[i]);
  }
  *out << ']';
}

void AppendNodeReport(std::ostringstream* out, const NodeReport& node) {
  *out << "{\"network\":";
  AppendString(out, node.network);
  *out << ",\"sql\":";
  AppendString(out, node.sql);
  *out << ",\"level\":" << node.level << '}';
}

}  // namespace

std::string DebugReportToJson(const DebugReport& report) {
  std::ostringstream out;
  out << "{\"query\":";
  AppendString(&out, report.keyword_query);
  out << ",\"keywords\":";
  AppendStringArray(&out, report.keywords);
  out << ",\"missing_keywords\":";
  AppendStringArray(&out, report.missing_keywords);
  out << ",\"interpretations_skipped\":" << report.interpretations_skipped;
  out << ",\"truncated\":" << (report.truncated ? "true" : "false");
  out << ",\"bind_millis\":" << report.bind_millis;
  out << ",\"debug_millis\":" << report.debug_millis;
  out << ",\"interpretations\":[";
  for (size_t i = 0; i < report.interpretations.size(); ++i) {
    const InterpretationReport& interp = report.interpretations[i];
    if (i > 0) out << ',';
    out << "{\"binding\":";
    AppendString(&out, interp.binding);
    out << ",\"truncated\":" << (interp.truncated ? "true" : "false");
    out << ",\"stats\":{\"lattice_nodes\":" << interp.prune_stats.lattice_nodes
        << ",\"surviving_nodes\":" << interp.prune_stats.surviving_nodes
        << ",\"mtns\":" << interp.prune_stats.num_mtns;
    AppendRunCountersJson(&out, interp.traversal_stats);
    out << ",\"pa_buckets\":[";
    for (size_t b = 0; b < interp.traversal_stats.pa_buckets.size(); ++b) {
      const PaBucketSnapshot& snap = interp.traversal_stats.pa_buckets[b];
      if (b > 0) out << ',';
      out << "{\"level\":" << snap.level
          << ",\"sel_bucket\":" << snap.sel_bucket
          << ",\"alive\":" << snap.alive << ",\"total\":" << snap.total
          << ",\"pa\":" << snap.pa << '}';
    }
    out << "]}";
    out << ",\"answers\":[";
    for (size_t a = 0; a < interp.answers.size(); ++a) {
      if (a > 0) out << ',';
      AppendNodeReport(&out, interp.answers[a].query);
    }
    out << "],\"non_answers\":[";
    for (size_t n = 0; n < interp.non_answers.size(); ++n) {
      const NonAnswerReport& na = interp.non_answers[n];
      if (n > 0) out << ',';
      out << "{\"network\":";
      AppendString(&out, na.query.network);
      out << ",\"sql\":";
      AppendString(&out, na.query.sql);
      out << ",\"level\":" << na.query.level;
      out << ",\"mpans\":[";
      for (size_t m = 0; m < na.mpans.size(); ++m) {
        if (m > 0) out << ',';
        AppendNodeReport(&out, na.mpans[m]);
      }
      out << "],\"culprits\":[";
      for (size_t m = 0; m < na.culprits.size(); ++m) {
        if (m > 0) out << ',';
        AppendNodeReport(&out, na.culprits[m]);
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace kwsdbg
