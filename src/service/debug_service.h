// DebugService: a worker pool serving keyword-query debugging requests over
// one shared immutable Lattice + Database. One bounded task queue under one
// mutex feeds `num_workers` threads; each worker pops one task per lock
// acquisition and runs it to completion. All workers share one verdict
// cache, one flat-index tier and (in adaptive mode) one p_a model, so a
// verdict computed by any worker answers every later query.
//
// Two entry points: synchronous RunBatch (results in input order plus the
// batch aggregate) and asynchronous Submit (open-loop load generation —
// callers inject at their own arrival rate and collect completions from a
// callback; see bench/service_scale_workload). Both admit through the same
// queue and complete through the same in-flight count.
//
// Per-query deadlines degrade gracefully: a query that exhausts its budget
// returns a partial report marked `truncated` containing only ground-truth
// verdicts (see common/cancellation.h), never a crash or a wrong verdict.
#ifndef KWSDBG_SERVICE_DEBUG_SERVICE_H_
#define KWSDBG_SERVICE_DEBUG_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/counter_table.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "debugger/non_answer_debugger.h"
#include "service/live_mutator.h"
#include "sql/flat_row_index.h"
#include "storage/checkpoint.h"
#include "storage/relation_fences.h"
#include "storage/wal.h"
#include "traversal/verdict_cache.h"

namespace kwsdbg {

/// Durability configuration (see storage/wal.h, storage/checkpoint.h).
/// With a non-empty `dir`, a mutable-constructed service recovers on
/// construction (validates the text index against the checkpoint
/// fingerprint, replays the WAL suffix through the mutation engine, chops
/// any torn tail) and every acknowledged ApplyMutation is WAL-logged.
struct DurabilityOptions {
  std::string dir;  ///< WAL + checkpoint directory; "" = durability off.
  WalOptions wal;   ///< Fsync policy + group-commit window.
};

/// Service configuration.
struct ServiceOptions {
  /// Worker pool size (threads); each worker runs whole queries, one at a
  /// time, so this is the service's only parallelism.
  size_t num_workers = 4;
  /// Default per-query wall-clock budget in milliseconds (0 = unbounded);
  /// RunBatch overloads can override it per batch.
  double default_deadline_millis = 0;
  /// Verdict-cache entry budget of the tier every worker shares.
  size_t shared_cache_capacity = VerdictCache::kDefaultCapacity;
  /// Admission control: maximum queued (not yet picked up) tasks; queries
  /// arriving at a full queue are shed at enqueue time with
  /// kResourceExhausted instead of growing the queue without limit.
  /// 0 = unbounded (default).
  size_t max_queue_depth = 0;
  /// Retry budget for queries failing with a retryable status (IsRetryable:
  /// kUnavailable / kResourceExhausted — transient dependency outages, not
  /// deadline expiry or malformed input). 0 disables retries, in which case
  /// the first transient failure surfaces as the query's typed status.
  size_t max_retries = 2;
  /// Exponential backoff between retry attempts: sleep
  /// min(base * 2^attempt, max) * jitter, jitter uniform in [0.5, 1.0),
  /// drawn from a per-worker Rng seeded from `retry_seed` (deterministic
  /// schedules per worker). Backoff never sleeps past the query deadline.
  double retry_backoff_base_millis = 1.0;
  double retry_backoff_max_millis = 50.0;
  uint64_t retry_seed = 0x5EEDu;
  /// Durability: WAL + checkpoint dir and fsync policy. Ignored (with a
  /// non-OK durability_status()) for const-constructed services — there is
  /// no write path to log.
  DurabilityOptions durability;
  /// Template for each worker's debugger. `shared_verdict_cache`,
  /// `executor.shared_flat_indexes`, `shared_pa_model`, and
  /// `deadline_millis` are overwritten by the service (wired to its shared
  /// tiers).
  DebuggerOptions debugger;
};

/// Outcome of one query.
struct QueryResult {
  std::string keyword_query;
  /// Non-OK when the pipeline failed outright (deadline expiry is NOT a
  /// failure — it yields an OK status and `report.truncated`).
  Status status = Status::OK();
  DebugReport report;        ///< Valid iff `status.ok()`.
  double queue_millis = 0;   ///< Enqueue -> worker pickup.
  double exec_millis = 0;    ///< Worker pickup -> report ready.
  size_t worker = 0;         ///< Which worker served it.
  size_t retries = 0;        ///< Retry attempts consumed (0 = first try won).
  bool shed = false;         ///< Rejected by admission control (never ran).
};

/// Aggregated batch statistics (the service-level analogue of
/// TraversalStats, exported via ServiceStatsToJson).
struct ServiceStats {
  size_t queries = 0;
  size_t truncated = 0;      ///< Queries whose report is partial.
  size_t failed = 0;         ///< Queries with a non-OK status.
  size_t retries = 0;        ///< Retry attempts across the batch.
  size_t shed = 0;           ///< Queries rejected by admission control
                             ///< (kResourceExhausted; included in failed).
  double wall_millis = 0;    ///< Batch submit -> last query done.
  double queries_per_second = 0;
  /// Latency distribution over exec_millis of queries that actually ran
  /// (shed queries never ran and are excluded — see ComputeServiceStats).
  double p50_millis = 0;
  double p95_millis = 0;
  double p99_millis = 0;
  double p999_millis = 0;
  double max_millis = 0;
  double mean_queue_millis = 0;  ///< Average worker wait (ran queries only).
  /// Every KWSDBG_TRAVERSAL_COUNTERS row (common/counter_table.h) summed
  /// over the traversal stats of the batch's completed queries. cache_hits
  /// include intra-query reuse; cache_evictions sums each run's cache-wide
  /// eviction delta, beside the tier's own lifetime count in
  /// shared_cache.evictions.
  KWSDBG_TRAVERSAL_COUNTERS(KWSDBG_COUNTER_FIELD)
  /// Live-write counters since service construction (all zero for a service
  /// built over a const database; see LiveMutator).
  size_t mutations_applied = 0;
  size_t partial_evictions = 0;  ///< Verdicts evicted by relation masks.
  size_t index_patches = 0;      ///< Posting-list + flat-arena in-place
                                 ///< patches.
  /// Durability counters since service construction (all zero without a
  /// WAL dir; see DurabilityOptions).
  size_t wal_records = 0;        ///< WAL records appended.
  size_t wal_fsyncs = 0;
  size_t checkpoints = 0;        ///< Checkpoints written (Checkpoint/Drain).
  size_t wal_replayed = 0;       ///< Records replayed at construction.
  size_t recovery_torn_bytes = 0;  ///< Torn-tail bytes dropped at recovery.
  /// The shared verdict tier after the batch (hits / misses count lookups
  /// from every worker since service construction).
  VerdictCacheStats shared_cache;

  /// One-paragraph human-readable rendering for bench/CLI output.
  std::string ToString() const;
};

/// Builds the aggregate over per-query results. Two correctness rules live
/// here (regression-tested in tests/service/service_stats_test.cc):
///   * Shed queries never ran — their zero exec/queue times are admission
///     outcomes, not latencies, and are excluded from the percentile sample
///     and the mean-queue-wait denominator (folding them in dragged
///     p50/p95 toward zero exactly when the service was overloaded).
///   * queries_per_second divides by a nonzero-clamped wall time, so tiny
///     batches that complete inside the timer's resolution report a finite
///     QPS instead of a vacuous 0 that slips through >= gates.
/// The shared_cache field is filled by the service, not here. Also used by
/// the open-loop harness for per-sweep windows.
ServiceStats ComputeServiceStats(const std::vector<QueryResult>& results,
                                 double wall_millis);

/// A completed batch: per-query results in input order plus the aggregate.
struct BatchResult {
  /// Batch-level status: kInvalidArgument when RunBatch was called while
  /// another batch was already in flight (the call is rejected wholesale —
  /// no query runs); OK otherwise, even if individual queries failed.
  Status status = Status::OK();
  std::vector<QueryResult> results;
  ServiceStats stats;
};

/// Thread pool over one shared database/lattice pair. RunBatch is
/// synchronous; one batch runs at a time (a concurrent RunBatch call is
/// rejected with a kInvalidArgument batch status). Submit is asynchronous
/// and may be called from any thread; pair it with WaitIdle. The referenced
/// db/lattice/index must outlive the service.
///
/// Write contract: constructed over const pointers, the database and index
/// must stay unmodified while queries are in flight (legacy single-writer
/// deployments: mutate + BumpEpoch() only while quiescent). Constructed
/// over mutable pointers, ApplyMutation() is the thread-safe write path —
/// it fences in-flight queries per relation (storage/relation_fences.h), so
/// a write to one table waits only for the queries that bind it, patches
/// the text index and the flat-index tier in place, and evicts only the
/// verdicts whose relation set the write intersects. Quiescence is no
/// longer required.
class DebugService {
 public:
  DebugService(const Database* db, const Lattice* lattice,
               const InvertedIndex* index, ServiceOptions options = {});

  /// Live-write construction: same service, plus ApplyMutation() backed by
  /// a LiveMutator over the (mutable) database and index. `index` may be
  /// null when the service runs without a text index.
  DebugService(Database* db, const Lattice* lattice, InvertedIndex* index,
               ServiceOptions options = {});

  ~DebugService();

  DebugService(const DebugService&) = delete;
  DebugService& operator=(const DebugService&) = delete;

  /// Admits every query at once and returns results in input order, using
  /// the configured default deadline. Queries that do not fit under
  /// max_queue_depth are shed (QueryResult::shed). Returns once the queue is
  /// idle, so it also waits for Submits accepted before it returns.
  BatchResult RunBatch(const std::vector<std::string>& queries);

  /// Same, with an explicit per-query deadline for this batch (0 = none).
  BatchResult RunBatch(const std::vector<std::string>& queries,
                       double deadline_millis);

  /// Asynchronous single-query submission for open-loop load generation:
  /// queues the query and returns immediately. On acceptance, `done` is
  /// invoked exactly once, on the executing worker's thread, with the
  /// completed result. When the queue is at max_queue_depth the query is
  /// shed: kResourceExhausted is returned and `done` is never called.
  /// Callers must WaitIdle() (or otherwise observe every callback) before
  /// destroying the service.
  Status Submit(std::string query, double deadline_millis,
                std::function<void(QueryResult)> done);

  /// Blocks until every accepted query (Submit or RunBatch) has completed
  /// and its callback has returned.
  void WaitIdle();

  /// The verdict tier every worker consults (tests: inspect hit rates,
  /// seed or Clear() it).
  VerdictCache* shared_cache() { return &cache_; }

  /// The p_a model every worker shares, or null when the debugger
  /// template has `adaptive` off.
  PaModel* shared_pa_model() { return pa_model_.get(); }

  /// Applies one live write (insert/delete/update) through the mutation
  /// engine: safe to call while queries are in flight — the write fences
  /// only the mutated relation. Serialized against concurrent ApplyMutation
  /// calls by the relation fences themselves. Returns kFailedPrecondition
  /// when the service was constructed over a const database.
  Status ApplyMutation(const Mutation& m);

  /// The mutation engine, or null for a const-constructed service (tests
  /// inspect MutationStats through it).
  LiveMutator* mutator() { return mutator_.get(); }

  /// Health of the durability subsystem. OK when durability is disabled or
  /// recovery succeeded; kDataLoss when the checkpoint/WAL failed checksum
  /// or the index fingerprint did not match (the service still serves
  /// reads, but ApplyMutation is rejected so divergence cannot compound);
  /// storage_status() when that refuses the engine, in which case recovery
  /// never ran and the durability dir is untouched.
  Status durability_status() const { return durability_status_; }

  /// kFailedPrecondition when the database has a spilled table or the text
  /// index is spilled and the service has more than one worker or a write
  /// path: the out-of-core tier is single-session, so every query and
  /// ApplyMutation then fails with this status. OK otherwise.
  Status storage_status() const { return storage_status_; }

  /// Crash-consistent snapshot of the database + index fingerprint into the
  /// durability dir, then truncates the WAL at the covered seq. Excludes
  /// writers for the duration by taking every relation fence shared (reads
  /// proceed). Returns durability_status() when recovery failed or was
  /// refused, and kFailedPrecondition when durability is off.
  Status Checkpoint();

  /// Graceful shutdown: stop admitting work (Submit/RunBatch/ApplyMutation
  /// return kUnavailable), wait for admitted queries and writes to finish,
  /// fsync the WAL, and checkpoint. After an OK Drain, recovery replays zero
  /// records. Fails as Checkpoint does, before it stops admitting work,
  /// when durability is off or its recovery did not open the log.
  Status Drain();

  /// The mutation log, or null when durability is off (the crash harness
  /// reads durable_seq() to decide which acks the zero-loss gate covers).
  WalWriter* wal() { return wal_.get(); }

  const ServiceOptions& options() const { return options_; }

 private:
  struct Task {
    std::string query;
    double deadline_millis = 0;
    Timer enqueued;  ///< Started at enqueue time.
    /// Completion sink: writes a batch slot or runs a Submit callback.
    std::function<void(QueryResult&&)> done;
  };

  void WorkerLoop(size_t worker_id);
  void ExecuteTask(NonAnswerDebugger* debugger, Rng* backoff_rng,
                   size_t worker_id, Task task);
  /// Admission, shared by Submit and RunBatch (caller holds mu_): queues
  /// `task` and counts it in flight, or returns false when the queue is at
  /// max_queue_depth (the task is left untouched for the caller to shed).
  bool AdmitLocked(Task* task);
  Status ShedStatus() const;

  /// Shared constructor body; `mutable_db` non-null enables the write path.
  DebugService(const Database* db, const Lattice* lattice,
               const InvertedIndex* index, ServiceOptions options,
               Database* mutable_db, InvertedIndex* mutable_index);

  /// Recovery-on-construct: validates the index fingerprint against the
  /// checkpoint, replays the WAL suffix through the mutation engine, and
  /// attaches the writer. Runs before worker threads start; failures land
  /// in durability_status_ (constructors cannot return a Status).
  void SetupDurability(Database* mutable_db);

  const Database* db_;
  const Lattice* lattice_;
  const InvertedIndex* index_;
  ServiceOptions options_;
  VerdictCache cache_;
  SharedFlatRowIndexManager flat_indexes_;
  /// Null when adaptive mode is off.
  std::unique_ptr<PaModel> pa_model_;
  /// Present iff constructed mutable: per-relation fences shared by every
  /// worker's evaluator and the mutation engine.
  std::unique_ptr<RelationFences> fences_;
  std::unique_ptr<LiveMutator> mutator_;

  /// Durability state (see DurabilityOptions). wal_ is created by
  /// SetupDurability before workers start and never reassigned, so workers
  /// may read it without locking; checkpoint_mu_ serializes Checkpoint and
  /// Drain against each other.
  std::unique_ptr<WalWriter> wal_;
  Status durability_status_ = Status::OK();
  /// Set once in the constructor, before workers start (see
  /// storage_status()).
  Status storage_status_ = Status::OK();
  std::mutex checkpoint_mu_;
  std::atomic<size_t> checkpoints_{0};
  size_t wal_replayed_ = 0;        ///< Set once during SetupDurability.
  size_t recovery_torn_bytes_ = 0;  ///< Set once during SetupDurability.

  std::mutex mu_;  ///< Guards the queue and every counter/flag below.
  std::condition_variable work_cv_;  ///< Wakes workers: task queued or stop_.
  std::condition_variable idle_cv_;  ///< Wakes waiters when a count hits 0.
  std::deque<Task> queue_;
  size_t queries_in_flight_ = 0;  ///< Admitted, callback not yet returned.
  size_t writes_in_flight_ = 0;   ///< ApplyMutation calls past admission.
  bool draining_ = false;
  bool batch_in_flight_ = false;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_SERVICE_DEBUG_SERVICE_H_
