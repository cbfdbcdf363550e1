// Query executor for join-network queries: index-backed backtracking join
// with keyword-containment filters, early exit for existence checks, and
// per-session caches (join-column hash indexes, keyword match sets) that
// model a warm DBMS.
//
// The executor runs a JoinPlan (sql/join_network.h): tables, columns and
// keywords already resolved. The debugger builds one per lattice node
// straight from the join tree (NodePlanBuilder, kws/query_builder.h); a
// JoinNetworkQuery (shell, Execute, Explain) is validated and compiled into
// one first. Both then take the same path:
//   1. candidate sourcing   — keyword candidates come from the session's
//      cached match set: the rows of the registered inverted index's posting
//      lists (Lucene-style `*kw*` dictionary scan) when possible, of a full
//      LIKE scan otherwise, plus a one-bit-per-row membership bitset built
//      with them. A keyword vertex without residual filters (every lattice
//      node) uses that row list and bitset as they are; only residual
//      constant or LIKE filters (shell queries) materialize candidates;
//   2. backtracking join    — smallest-candidate-first instance order with
//      FlatRowIndex probes on join columns, each (vertex, probe constraint)
//      index resolved once per query; a network is dead once the search
//      runs out of candidates without a witness;
//   3. existence mode       — IsNonEmpty stops at the first witness without
//      materializing rows or column headers.
// Spans into cached match sets and resolved index pointers live for one
// query only: a write between two queries may drop a match set or rebuild an
// index, which the next query's cache revalidation handles.
//
// Join-column probes go to flat open-addressing hash indexes over 64-bit key
// hashes with row-id runs in one contiguous arena (sql/flat_row_index.h).
// A backtracking frame of at least kBatchMinProbes candidates whose next
// depth probes on its key runs a DRAMHiT-style batched pipeline — hash the
// join keys of upcoming candidates, software-prefetch the child index's
// buckets a window ahead, and probe with those same hashes on descent — so
// result rows, their order, the kCancelCheckStride cancellation points and
// the executor.join.probe fault point are the same as probing one key at a
// time.
#ifndef KWSDBG_SQL_EXECUTOR_H_
#define KWSDBG_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/counter_table.h"
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
  explicit Executor(const Database* db, ExecutorOptions options = {});
  ~Executor();
  Executor(Executor&&) noexcept;
  Executor& operator=(Executor&&) noexcept;

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

  /// IsNonEmpty on an already resolved plan (the debugger's path: no names
  /// to look up). The plan's tables must belong to this executor's database.
  StatusOr<bool> IsNonEmpty(const JoinPlan& plan);

  /// Human-readable execution plan: the chosen instance order with the
  /// estimated candidate rows per instance and the access path (keyword
  /// scan, full scan, or index probe on a join column).
  StatusOr<std::string> Explain(const JoinNetworkQuery& query);

  const ExecutorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecutorStats{}; }

  /// The database queries run against.
  const Database* db() const { return db_; }

  /// Drops the index and keyword-match caches (cold session).
  void ClearCaches();

 private:
  /// Rows of `table` matching LIKE '%keyword%' on any text column.
  struct KeywordMatches {
    std::vector<uint32_t> rows;  ///< Matching rows, ascending.
    /// Bit r set iff row r matches; one bit per table row at build time.
    /// The join tests candidate membership here.
    std::vector<uint64_t> bits;
  };

  /// Per-query working state of RunJoin and Explain (defined in
  /// executor.cc), kept across queries so its buffers are reused.
  struct JoinState;

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

  /// Cache-validity prologue shared by RunJoin and Explain: drops session
  /// caches a database epoch bump, an index vocabulary change, or a write to
  /// one of the plan's tables made stale.
  void RevalidateCaches(const JoinPlan& plan);

  /// Fills state_ for `plan`: candidate counts, per-vertex constraints and
  /// the instance order. With `estimate_spilled`, keyword vertices over a
  /// spilled index are counted from its profile instead of materialized.
  void Prepare(const JoinPlan& plan, bool estimate_spilled);

  /// Validates and compiles `query` for Execute/IsNonEmpty. A query that
  /// does not compile still counts as executed.
  StatusOr<JoinPlan> Compile(const JoinNetworkQuery& query);

  /// Shared core of Execute/IsNonEmpty. Returns whether at least one result
  /// exists; materializes rows into `out` unless it is null (existence
  /// mode, which stops at the first witness).
  StatusOr<bool> RunJoin(const JoinPlan& plan, size_t limit, ResultSet* out);

  const Database* db_;
  ExecutorOptions options_;
  const InvertedIndex* text_index_ = nullptr;
  FlatRowIndexManager flat_indexes_;
  /// Keyword match sets by table, then by lower-cased keyword.
  std::unordered_map<const Table*,
                     std::unordered_map<std::string, KeywordMatches>>
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
  std::unique_ptr<JoinState> state_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_SQL_EXECUTOR_H_
