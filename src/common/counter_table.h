// The per-run counter table: every counter one strategy run reports,
// declared once as a row X(name, kind, doc). ExecutorStats, TraversalStats
// and ServiceStats expand the lists below into flat, same-named fields;
// internal::RunCounters derives the per-run executor deltas from them,
// AddRunCounters the sum over runs, and AppendRunCountersJson
// (debugger/report_json.h) the JSON. A new counter is one row here plus the
// line that increments it.
#ifndef KWSDBG_COMMON_COUNTER_TABLE_H_
#define KWSDBG_COMMON_COUNTER_TABLE_H_

#include <cstddef>
#include <type_traits>

namespace kwsdbg {

/// What a counter measures: events (or bytes), or wall time.
enum class CounterKind {
  kCount,   ///< A size_t tally.
  kMillis,  ///< A double of milliseconds.
};

/// Field type of a counter of kind `K`.
template <CounterKind K>
using CounterValue =
    std::conditional_t<K == CounterKind::kMillis, double, size_t>;

/// Executor counters (ExecutorStats) that a strategy run reports as deltas
/// of its evaluator's executor (TraversalStats). The storage rows are zero
/// for a resident database and index; the fallback row is zero unless a
/// fault is injected (common/fault_injector.h).
#define KWSDBG_EXECUTOR_COUNTERS(X)                                           \
  X(posting_hits, kCount,                                                     \
    "Keyword match sets served from the inverted index's posting lists.")     \
  X(scan_fallbacks, kCount,                                                   \
    "Keyword match sets built by a full LIKE scan (index miss or fallback).") \
  X(semijoin_eliminations, kCount,                                            \
    "Always 0: the executor has no semijoin pass any more. Kept until "       \
    "perfbench/ (paper.cc, served.cc) stops reading it.")                     \
  X(rows_probed, kCount, "Rows pulled during backtracking joins.")            \
  X(rows_filtered, kCount,                                                    \
    "Always 0: the executor has no semijoin pass any more. Kept until "       \
    "perfbench/ (paper.cc, served.cc) stops reading it.")                     \
  X(index_builds, kCount, "Join-column hash indexes built.")                  \
  X(flat_probes, kCount, "Lookups answered by a FlatRowIndex.")               \
  X(prefetch_batches, kCount,                                                 \
    "Backtracking frames that opened a child-probe prefetch window.")         \
  X(index_build_millis, kMillis, "Wall time building flat indexes.")          \
  X(arena_bytes, kCount, "Row-id arena bytes across flat indexes built.")     \
  X(index_fallbacks, kCount,                                                  \
    "Keyword match sets that fell back from posting lists to a LIKE scan "    \
    "because the text-index path faulted.")                                   \
  X(page_hits, kCount, "Table page fetches served by the buffer pool.")       \
  X(page_reads, kCount, "Table pages read from disk.")                        \
  X(page_evictions, kCount, "Buffer-pool frames displaced.")                  \
  X(posting_reads, kCount, "Posting lists fetched from disk.")

/// Every numeric counter of one strategy run (TraversalStats), in report
/// JSON order: the evaluator's, the executor's, then the adaptive one
/// (zero without a PaModel attached).
#define KWSDBG_TRAVERSAL_COUNTERS(X)                                          \
  X(sql_queries, kCount, "SQL executions (Fig. 11 / Table 4).")               \
  X(sql_millis, kMillis, "Time inside SQL execution (Fig. 12).")              \
  X(total_millis, kMillis, "End-to-end traversal time.")                      \
  X(cache_hits, kCount,                                                       \
    "Verdict-cache hits (zero when no cache is attached).")                   \
  X(cache_misses, kCount, "Verdict-cache misses.")                            \
  X(cache_evictions, kCount,                                                  \
    "Verdict-cache evictions during the run, cache-wide.")                    \
  KWSDBG_EXECUTOR_COUNTERS(X)                                                 \
  X(pa_observations, kCount,                                                  \
    "Verdicts the run fed to the PaModel (none while it is frozen).")

/// Expands a table row into a zero-initialized field of its kind's type.
#define KWSDBG_COUNTER_FIELD(name, kind, doc) \
  CounterValue<CounterKind::kind> name = 0;

/// Adds every KWSDBG_TRAVERSAL_COUNTERS field of `from` into `*to` (each a
/// TraversalStats or a ServiceStats).
template <typename To, typename From>
void AddRunCounters(To* to, const From& from) {
#define KWSDBG_ADD_COUNTER(name, kind, doc) to->name += from.name;
  KWSDBG_TRAVERSAL_COUNTERS(KWSDBG_ADD_COUNTER)
#undef KWSDBG_ADD_COUNTER
}

}  // namespace kwsdbg

#endif  // KWSDBG_COMMON_COUNTER_TABLE_H_
