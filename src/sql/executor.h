// Query executor for join-network queries: index-backed backtracking join
// with keyword-containment filters, early exit for existence checks, and
// per-session caches (join-column hash indexes, keyword match sets) that
// model a warm DBMS.
//
// Evaluation pipeline:
//   1. candidate sourcing   — keyword candidates come from the registered
//      inverted index (posting lists, Lucene-style `*kw*` dictionary scan)
//      when possible, falling back to a full LIKE scan otherwise;
//   2. backtracking join    — smallest-candidate-first instance order with
//      FlatRowIndex probes on join columns; a network is dead once the
//      search runs out of candidates without a witness;
//   3. existence mode       — IsNonEmpty stops at the first witness without
//      materializing rows or column headers.
//
// Join-column probes go to flat open-addressing hash indexes over 64-bit key
// hashes with row-id runs in one contiguous arena (sql/flat_row_index.h).
// A backtracking frame of at least kBatchMinProbes candidates whose next
// depth probes on its key runs a DRAMHiT-style batched pipeline — hash the
// join keys of upcoming candidates, software-prefetch the child index's
// buckets a window ahead — so result rows, their order, the
// kCancelCheckStride cancellation points and the executor.join.probe fault
// point are the same as probing one key at a time.
#ifndef KWSDBG_SQL_EXECUTOR_H_
#define KWSDBG_SQL_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/counter_table.h"
#include "common/hash.h"
#include "common/status.h"
#include "sql/flat_row_index.h"
#include "sql/join_network.h"
#include "storage/database.h"
#include "text/inverted_index.h"

namespace kwsdbg {

/// Materialized query output: alias-qualified column names plus rows that
/// concatenate the matched tuples in vertex order.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Tuple> rows;

  bool empty() const { return rows.empty(); }
  /// Renders an ASCII table (for examples and the shell).
  std::string ToString(size_t max_rows = 20) const;
};

/// Executor options. The feature toggle lets benchmarks compare the
/// LIKE-scan path (off) against the index-backed default.
struct ExecutorOptions {
  /// Source keyword candidates from a registered inverted index.
  bool use_text_index = true;
  /// Cooperative deadline: when set, long probes poll the token between row
  /// batches and unwind with kDeadlineExceeded once it fires. A cancelled
  /// probe produces no verdict and leaves session caches consistent (only
  /// fully built match sets / indexes are ever cached). The token must
  /// outlive the executor.
  const CancellationToken* cancellation = nullptr;
  /// Service-shared flat-index tier (thread-safe, epoch-aware). When set,
  /// flat-index probes go through it instead of the private per-session
  /// manager, so the workers of a DebugService share one set of arenas
  /// instead of each building a copy. Must outlive the executor. This
  /// tier invalidates by epoch internally; the session's ClearCaches()
  /// deliberately leaves it alone (other sessions share it).
  SharedFlatRowIndexManager* shared_flat_indexes = nullptr;
};

/// Accumulated executor counters; the traversal experiments read these.
/// The per-run ones are the rows of KWSDBG_EXECUTOR_COUNTERS
/// (common/counter_table.h).
struct ExecutorStats {
  size_t queries_executed = 0;  ///< Execute/IsNonEmpty calls (failed too).
  double exec_millis = 0;       ///< Total wall time inside the executor,
                                ///< accounted on every exit path.
  size_t rows_output = 0;
  size_t existence_probes = 0;  ///< IsNonEmpty calls (first-witness mode).
  KWSDBG_EXECUTOR_COUNTERS(KWSDBG_COUNTER_FIELD)
};

/// One executor = one "database session". Not thread-safe.
class Executor {
 public:
  explicit Executor(const Database* db, ExecutorOptions options = {})
      : db_(db), options_(options) {}

  /// Registers the inverted index keyword candidates are sourced from. The
  /// index must be built over this executor's database and outlive the
  /// executor; pass nullptr to fall back to LIKE scans (and call
  /// ClearCaches() if match sets were already built from a previous index).
  void RegisterTextIndex(const InvertedIndex* index) { text_index_ = index; }

  /// Runs the query; `limit` of 0 means unlimited.
  StatusOr<ResultSet> Execute(const JoinNetworkQuery& query,
                              size_t limit = 0);

  /// Existence check — how the debugger tests node aliveness (R(J) !=
  /// empty, paper Sec. 2.1). Stops at the first witness without building
  /// result rows or column headers.
  StatusOr<bool> IsNonEmpty(const JoinNetworkQuery& query);

  /// Human-readable execution plan: the chosen instance order with the
  /// estimated candidate rows per instance and the access path (keyword
  /// scan, full scan, or index probe on a join column).
  StatusOr<std::string> Explain(const JoinNetworkQuery& query);

  const ExecutorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecutorStats{}; }

  /// Drops the index and keyword-match caches (cold session).
  void ClearCaches();

 private:
  /// Rows of `table` matching LIKE '%keyword%' on any text column.
  struct KeywordMatches {
    std::vector<uint32_t> rows;  ///< Matching rows, ascending.
    size_t count = 0;
  };

  const KeywordMatches& GetKeywordMatches(const Table* table,
                                          const std::string& keyword);

  /// True iff the registered index can answer '%keyword%' exactly: the
  /// keyword must tokenize to itself (single alphanumeric run), so every
  /// LIKE match lies inside one indexed term.
  bool IndexServable(const std::string& keyword) const;

  /// Dictionary ids of index terms containing `keyword`, memoized (the
  /// dictionary scan is per-keyword, not per-table). Ids rather than list
  /// pointers: on a spilled index a fetched list is only valid until the
  /// next fetch, so callers resolve one id at a time via PostingsForTermId.
  const std::vector<uint32_t>& InfixTermIds(const std::string& keyword);

  /// The flat index over (table, column) — from the service-shared tier
  /// when one is set, else the session's own — with build accounting.
  const FlatRowIndex& GetFlatIndex(const Table* table, size_t column);

  /// Rows of (table, column) structurally equal to `v`.
  RowSpan ProbeJoinIndex(const Table* table, size_t column, const Value& v);

  /// Cache-validity prologue shared by RunJoin and Explain: drops session
  /// caches a database epoch bump, an index vocabulary change, or a write to
  /// one of the query's tables made stale.
  void RevalidateCaches(const JoinNetworkQuery& query);

  /// Shared core of Execute/IsNonEmpty. Returns whether at least one result
  /// exists; materializes rows into `out` unless it is null (existence
  /// mode, which stops at the first witness).
  StatusOr<bool> RunJoin(const JoinNetworkQuery& query, size_t limit,
                         ResultSet* out);

  const Database* db_;
  ExecutorOptions options_;
  const InvertedIndex* text_index_ = nullptr;
  FlatRowIndexManager flat_indexes_;
  std::unordered_map<std::pair<const Table*, std::string>, KeywordMatches,
                     PairHash>
      keyword_cache_;
  std::unordered_map<std::string, std::vector<uint32_t>> infix_cache_;
  /// Per-table data epochs the session caches were built against.
  /// RevalidateCaches compares them for the query's tables and drops only
  /// the stale tables' keyword match sets and join indexes (relation-scoped
  /// invalidation: a write to Person leaves a warm session's Movie caches
  /// untouched).
  std::unordered_map<const Table*, uint64_t> table_cache_epochs_;
  /// InvertedIndex::version() the infix cache (term ids) was built against;
  /// a vocabulary change re-finalizes the dictionary and re-assigns ids.
  uint64_t index_version_ = 0;
  /// Set per RunJoin: any table or the index is serving from disk. Gates
  /// the reference-copy paths and selectivity-first probing so the fully
  /// resident hot path stays byte-identical to the in-memory engine.
  bool spill_mode_ = false;
  /// Database::epoch() the session caches were built against; a mismatch at
  /// query entry drops them (see RevalidateCaches).
  uint64_t cache_epoch_ = 0;
  ExecutorStats stats_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_SQL_EXECUTOR_H_
