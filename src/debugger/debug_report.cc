#include "debugger/debug_report.h"

#include <algorithm>
#include <sstream>

namespace kwsdbg {

size_t DebugReport::TotalAnswers() const {
  size_t n = 0;
  for (const auto& interp : interpretations) n += interp.answers.size();
  return n;
}

size_t DebugReport::TotalNonAnswers() const {
  size_t n = 0;
  for (const auto& interp : interpretations) n += interp.non_answers.size();
  return n;
}

size_t DebugReport::TotalMpans() const {
  size_t n = 0;
  for (const auto& interp : interpretations) {
    for (const auto& na : interp.non_answers) n += na.mpans.size();
  }
  return n;
}

TraversalStats DebugReport::AggregateTraversalStats() const {
  TraversalStats stats;
  for (const auto& interp : interpretations) {
    AddRunCounters(&stats, interp.traversal_stats);
    // The model slice kept is the last (warmest) one.
    if (!interp.traversal_stats.pa_buckets.empty()) {
      stats.pa_buckets = interp.traversal_stats.pa_buckets;
    }
  }
  return stats;
}

std::string DebugReport::ClassificationSignature() const {
  // Sorted within each section so the signature is insensitive to answer
  // ranking and to MPAN/culprit emission order, but still distinguishes
  // which interpretation a verdict belongs to.
  std::ostringstream out;
  for (const InterpretationReport& interp : interpretations) {
    out << "I{" << interp.binding << "}";
    std::vector<std::string> answers, non_answers;
    for (const AnswerReport& ans : interp.answers) {
      answers.push_back(ans.query.network);
    }
    for (const NonAnswerReport& na : interp.non_answers) {
      std::string entry = na.query.network;
      std::vector<std::string> subs;
      for (const NodeReport& mpan : na.mpans) subs.push_back("+" + mpan.network);
      for (const NodeReport& c : na.culprits) subs.push_back("-" + c.network);
      std::sort(subs.begin(), subs.end());
      for (const std::string& s : subs) entry += "|" + s;
      non_answers.push_back(std::move(entry));
    }
    std::sort(answers.begin(), answers.end());
    std::sort(non_answers.begin(), non_answers.end());
    out << "A[";
    for (const std::string& a : answers) out << a << ";";
    out << "]N[";
    for (const std::string& n : non_answers) out << n << ";";
    out << "]";
    if (interp.truncated) out << "T";
  }
  return out.str();
}

std::string DebugReport::ToString(size_t max_items_per_section) const {
  std::ostringstream out;
  out << "Keyword query: \"" << keyword_query << "\"\n";
  if (!missing_keywords.empty()) {
    out << "  Keywords not found anywhere in the database:";
    for (const auto& k : missing_keywords) out << " " << k;
    out << "\n  (\"and\" semantics: no candidate network can return results;"
           " exploration stopped)\n";
    return out.str();
  }
  out << "  Interpretations: " << interpretations.size();
  if (interpretations_skipped > 0) {
    out << " (+" << interpretations_skipped << " skipped)";
  }
  if (truncated) out << " [TRUNCATED: deadline exceeded]";
  out << ", answers: " << TotalAnswers()
      << ", non-answers: " << TotalNonAnswers()
      << ", MPANs: " << TotalMpans() << "\n";
  for (size_t i = 0; i < interpretations.size(); ++i) {
    const InterpretationReport& rep = interpretations[i];
    out << "\n== Interpretation " << (i + 1) << ": " << rep.binding;
    if (rep.truncated) out << " (truncated)";
    out << "\n";
    out << "   lattice " << rep.prune_stats.lattice_nodes << " -> "
        << rep.prune_stats.surviving_nodes << " nodes after Phase 1, "
        << rep.prune_stats.num_mtns << " MTN(s), "
        << rep.traversal_stats.sql_queries << " SQL queries";
    if (rep.traversal_stats.cache_hits + rep.traversal_stats.cache_misses >
        0) {
      out << " (verdict cache: " << rep.traversal_stats.cache_hits
          << " hit(s), " << rep.traversal_stats.cache_misses << " miss(es))";
    }
    out << "\n";
    const TraversalStats& ts = rep.traversal_stats;
    if (ts.posting_hits + ts.scan_fallbacks + ts.rows_probed > 0) {
      out << "   executor: " << ts.posting_hits << " posting-list match set(s), "
          << ts.scan_fallbacks << " scan fallback(s), " << ts.rows_probed
          << " row(s) probed, " << ts.index_builds << " index build(s)\n";
      if (ts.flat_probes > 0) {
        out << "   probe engine: " << ts.flat_probes << " flat probe(s), "
            << ts.prefetch_batches << " prefetch batch(es), "
            << ts.arena_bytes << " arena byte(s)\n";
      }
      if (ts.page_hits + ts.page_reads + ts.posting_reads > 0) {
        out << "   storage: " << ts.page_reads << " page read(s), "
            << ts.page_hits << " page hit(s), " << ts.page_evictions
            << " eviction(s), " << ts.posting_reads
            << " posting-list read(s)\n";
      }
      if (ts.index_fallbacks > 0) {
        out << "   degraded: " << ts.index_fallbacks
            << " text-index fallback(s)\n";
      }
    }
    size_t shown = 0;
    for (const AnswerReport& ans : rep.answers) {
      if (shown++ >= max_items_per_section) {
        out << "   ... (" << rep.answers.size() - max_items_per_section
            << " more answers)\n";
        break;
      }
      out << "  [ANSWER] " << ans.query.network << "\n";
      out << "           " << ans.query.sql << "\n";
      if (!ans.sample.rows.empty()) {
        out << "           e.g. " << ans.sample.rows.size()
            << " sample row(s)\n";
      }
    }
    shown = 0;
    for (const NonAnswerReport& na : rep.non_answers) {
      if (shown++ >= max_items_per_section) {
        out << "   ... (" << rep.non_answers.size() - max_items_per_section
            << " more non-answers)\n";
        break;
      }
      out << "  [NON-ANSWER] " << na.query.network << "\n";
      out << "               " << na.query.sql << "\n";
      for (const NodeReport& mpan : na.mpans) {
        out << "    maximal alive sub-query: " << mpan.network << "\n";
      }
      for (const NodeReport& culprit : na.culprits) {
        out << "    smallest failing sub-query (culprit): "
            << culprit.network << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace kwsdbg
