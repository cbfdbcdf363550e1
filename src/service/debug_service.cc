#include "service/debug_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "text/inverted_index.h"

namespace kwsdbg {

namespace {

/// Fingerprint of the live index for checkpoint validation: recovery
/// rebuilds the index from restored tables and compares against the stored
/// fingerprint, so a restore that silently diverged (wrong corpus, stale
/// tables) fails kDataLoss instead of serving wrong verdicts.
CheckpointIndexInfo ComputeIndexFingerprint(const InvertedIndex* index) {
  CheckpointIndexInfo info;
  if (index == nullptr) return info;
  info.present = true;
  info.num_terms = index->num_terms();
  info.num_postings = index->num_postings();
  uint64_t h = SplitMix64(0x6b777364ull);  // "kwsd"
  for (const std::string& term : index->Terms()) {
    h = SplitMix64(h ^ Checksum64(term.data(), term.size()));
  }
  info.dict_checksum = h;
  return info;
}

/// Nearest-rank percentile over a sorted sample (q in [0,1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

std::string ServiceStats::ToString() const {
  std::ostringstream out;
  out << queries << " queries in " << wall_millis << " ms ("
      << queries_per_second << " qps), " << truncated << " truncated, "
      << failed << " failed";
  if (retries + shed > 0) {
    out << " (" << retries << " retried attempt(s), " << shed << " shed)";
  }
  out << "\n";
  if (index_fallbacks > 0) {
    out << "  degraded: " << index_fallbacks << " text-index fallback(s)\n";
  }
  if (page_hits + page_reads + posting_reads > 0) {
    out << "  storage: " << page_reads << " page read(s), " << page_hits
        << " page hit(s), " << page_evictions << " eviction(s), "
        << posting_reads << " posting-list read(s)\n";
  }
  out << "  latency ms: p50=" << p50_millis << " p95=" << p95_millis
      << " p99=" << p99_millis << " p999=" << p999_millis
      << " max=" << max_millis << ", mean queue wait=" << mean_queue_millis
      << " ms\n";
  out << "  sql: " << sql_queries << " queries, verdict cache "
      << cache_hits << " hit(s) / " << cache_misses << " miss(es)"
      << "; shared tier: " << shared_cache.entries << " entries, "
      << shared_cache.hits << " hit(s), " << shared_cache.evictions
      << " eviction(s)";
  if (pa_observations > 0) {
    out << "\n  adaptive: " << pa_observations << " p_a observation(s)";
  }
  if (mutations_applied + partial_evictions + index_patches > 0) {
    out << "\n  writes: " << mutations_applied << " mutation(s), "
        << index_patches << " index patch(es), " << partial_evictions
        << " relation-scoped eviction(s)";
  }
  if (wal_records + checkpoints + wal_replayed + recovery_torn_bytes > 0) {
    out << "\n  durability: " << wal_records << " wal record(s), "
        << wal_fsyncs << " fsync(s), " << checkpoints << " checkpoint(s), "
        << wal_replayed << " record(s) replayed at recovery";
    if (recovery_torn_bytes > 0) {
      out << ", " << recovery_torn_bytes << " torn-tail byte(s) dropped";
    }
  }
  return out.str();
}

ServiceStats ComputeServiceStats(const std::vector<QueryResult>& results,
                                 double wall_millis) {
  ServiceStats stats;
  stats.queries = results.size();
  stats.wall_millis = wall_millis;
  std::vector<double> latencies;
  latencies.reserve(results.size());
  double queue_sum = 0;
  for (const QueryResult& r : results) {
    stats.retries += r.retries;
    if (r.shed) {
      // Shed queries never ran: their zero exec/queue times are admission
      // outcomes, not latencies. Folding them into the sample dragged
      // p50/p95 toward zero exactly when the service was overloaded.
      ++stats.shed;
      ++stats.failed;
      continue;
    }
    latencies.push_back(r.exec_millis);
    queue_sum += r.queue_millis;
    if (!r.status.ok()) {
      ++stats.failed;
      continue;
    }
    if (r.report.truncated) ++stats.truncated;
    AddRunCounters(&stats, r.report.AggregateTraversalStats());
  }
  if (stats.queries > 0) {
    // Tiny batches can finish inside the timer's microsecond resolution; a
    // zero denominator reported 0 QPS and made ">= floor" gates vacuous.
    stats.queries_per_second = static_cast<double>(stats.queries) /
                               std::max(wall_millis, 0.001) * 1000.0;
  }
  std::sort(latencies.begin(), latencies.end());
  stats.p50_millis = Percentile(latencies, 0.50);
  stats.p95_millis = Percentile(latencies, 0.95);
  stats.p99_millis = Percentile(latencies, 0.99);
  stats.p999_millis = Percentile(latencies, 0.999);
  stats.max_millis = latencies.empty() ? 0 : latencies.back();
  if (!latencies.empty()) {
    stats.mean_queue_millis = queue_sum / static_cast<double>(latencies.size());
  }
  return stats;
}

DebugService::DebugService(const Database* db, const Lattice* lattice,
                           const InvertedIndex* index, ServiceOptions options)
    : DebugService(db, lattice, index, std::move(options),
                   /*mutable_db=*/nullptr, /*mutable_index=*/nullptr) {}

DebugService::DebugService(Database* db, const Lattice* lattice,
                           InvertedIndex* index, ServiceOptions options)
    : DebugService(db, lattice, index, std::move(options),
                   /*mutable_db=*/db, /*mutable_index=*/index) {}

DebugService::DebugService(const Database* db, const Lattice* lattice,
                           const InvertedIndex* index, ServiceOptions options,
                           Database* mutable_db, InvertedIndex* mutable_index)
    : db_(db),
      lattice_(lattice),
      index_(index),
      options_(options),
      cache_(std::max<size_t>(1, options_.shared_cache_capacity)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  // The buffer pool and a spilled index's PostingStore keep unguarded LRU
  // state and counters, and a pool hit decodes into its frame: a spilled
  // engine is a single-session artifact. Refuse to serve it from more than
  // one thread instead of racing on it.
  const bool spilled =
      db->AnySpilled() || (index != nullptr && index->spilled());
  if (spilled && (options_.num_workers > 1 || mutable_db != nullptr)) {
    storage_status_ = Status::FailedPrecondition(
        "a spilled database or text index is single-session: serve it from "
        "a const DebugService with one worker (this one has " +
        std::to_string(options_.num_workers) + " worker(s)" +
        (mutable_db != nullptr ? " and a write path)" : ")"));
  }
  if (options_.debugger.adaptive) pa_model_ = std::make_unique<PaModel>();
  // The write path must exist before any worker thread starts: workers read
  // fences_ when building their evaluators.
  if (mutable_db != nullptr) {
    fences_ = std::make_unique<RelationFences>(mutable_db->num_tables());
    mutator_ = std::make_unique<LiveMutator>(mutable_db, mutable_index,
                                             fences_.get());
    mutator_->RegisterVerdictCache(&cache_);
    mutator_->RegisterFlatTier(&flat_indexes_);
  }
  // Durability comes up after the mutation engine (replay goes through it)
  // and before any worker thread starts, so recovery never races a query.
  // A refused spilled engine is read-only: recovery would replay the log
  // into tables that refuse writes and reopen (possibly chop) the log, so
  // the durability dir is left untouched and the refusal reported instead.
  if (!options_.durability.dir.empty()) {
    if (mutable_db == nullptr) {
      durability_status_ = Status::FailedPrecondition(
          "durability requires the mutable DebugService constructor; a "
          "const database has no write path to log");
    } else if (!storage_status_.ok()) {
      durability_status_ = storage_status_;
    } else {
      SetupDurability(mutable_db);
    }
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void DebugService::SetupDurability(Database* mutable_db) {
  (void)mutable_db;  // Replay flows through mutator_, built over it already.
  const std::string& dir = options_.durability.dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // Open reports failures.
  const std::string wal_path = dir + "/wal.log";

  // 1. Checkpoint metadata: learn the covered seq and validate the caller's
  //    rebuilt index against the stored fingerprint BEFORE replay — WAL
  //    records patch the index in place, so replaying onto a wrong index
  //    would compound the divergence.
  uint64_t covered = 0;
  StatusOr<CheckpointInfo> info_or = ReadCheckpointInfo(dir);
  if (info_or.ok()) {
    const CheckpointInfo& info = info_or.value();
    covered = info.covered_seq;
    if (info.index.present) {
      const CheckpointIndexInfo now = ComputeIndexFingerprint(index_);
      if (!now.present || now.num_terms != info.index.num_terms ||
          now.num_postings != info.index.num_postings ||
          now.dict_checksum != info.index.dict_checksum) {
        durability_status_ = Status::DataLoss(
            "index fingerprint mismatch vs checkpoint in " + dir +
            ": rebuilt index has " + std::to_string(now.num_terms) +
            " terms / " + std::to_string(now.num_postings) +
            " postings, checkpoint recorded " +
            std::to_string(info.index.num_terms) + " / " +
            std::to_string(info.index.num_postings));
        return;
      }
    }
  } else if (info_or.status().code() != StatusCode::kNotFound) {
    durability_status_ = info_or.status();
    return;
  }

  // 2. Replay the WAL suffix through the mutation engine. Records at or
  //    below the covered seq are already in the snapshot; a WAL whose base
  //    exceeds the covered seq means the checkpoint that justified the
  //    truncation vanished — unrecoverable.
  StatusOr<WalReplayResult> replay_or = ReadWal(wal_path);
  if (!replay_or.ok()) {
    durability_status_ = replay_or.status();
    return;
  }
  const WalReplayResult& replay = replay_or.value();
  recovery_torn_bytes_ = replay.torn_tail_bytes;
  if (replay.exists && replay.base_seq > covered) {
    durability_status_ = Status::DataLoss(
        "WAL " + wal_path + " starts at seq " +
        std::to_string(replay.base_seq) + " but the checkpoint covers only " +
        std::to_string(covered) + "; the covering checkpoint is gone");
    return;
  }
  for (const WalRecord& rec : replay.records) {
    if (rec.seq <= covered) continue;
    const Status applied = mutator_->ApplyRecord(rec);
    if (!applied.ok()) {
      durability_status_ = Status::DataLoss(
          "WAL replay failed at seq " + std::to_string(rec.seq) + ": " +
          applied.ToString());
      return;
    }
    ++wal_replayed_;
  }

  // 3. Attach the writer (chops any torn tail so new appends start on a
  //    frame boundary). From here every acknowledged mutation is logged.
  //    Open gets the covered seq so a fresh or wholly-superseded log
  //    restarts at the checkpoint boundary — never below it, where new
  //    appends would take seqs the next recovery skips as covered.
  StatusOr<std::unique_ptr<WalWriter>> wal_or =
      WalWriter::Open(wal_path, options_.durability.wal, covered);
  if (!wal_or.ok()) {
    durability_status_ = wal_or.status();
    return;
  }
  wal_ = std::move(wal_or).value();
  mutator_->AttachWal(wal_.get());
}

Status DebugService::Checkpoint() {
  // A failed or refused recovery leaves the log closed; say why.
  KWSDBG_RETURN_NOT_OK(durability_status_);
  if (mutator_ == nullptr || wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint requires durability (ServiceOptions::durability.dir) on "
        "a mutable-constructed service");
  }
  if (mutator_->wal_poisoned()) {
    return Status::DataLoss(
        "refusing to checkpoint: the mutator is poisoned (a WAL append "
        "failed after its in-memory apply), so a snapshot would persist a "
        "state holding a write the caller never saw acknowledged");
  }
  std::lock_guard<std::mutex> serialize(checkpoint_mu_);
  // Taking every relation fence shared blocks RelationWriteGuard writers
  // (ApplyMutation) for the duration while queries keep reading — the row
  // scan below must not race an in-place mutation. With writers quiesced
  // next_seq is stable, so the snapshot covers exactly the applied prefix.
  RelationReadGuard quiesce(fences_.get(), RelationReadGuard::kAllRelations);
  const uint64_t covered = wal_->next_seq() - 1;
  KWSDBG_RETURN_NOT_OK(WriteCheckpoint(*db_, options_.durability.dir, covered,
                                       ComputeIndexFingerprint(index_)));
  KWSDBG_RETURN_NOT_OK(wal_->Truncate(covered));
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DebugService::Drain() {
  KWSDBG_RETURN_NOT_OK(durability_status_);
  if (mutator_ == nullptr || wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Drain requires durability (ServiceOptions::durability.dir) on a "
        "mutable-constructed service");
  }
  {
    // Every entry point checks draining_ and registers its work under mu_,
    // so once the flag is set here no call can slip in unwaited for.
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    idle_cv_.wait(lock, [this] {
      return queries_in_flight_ == 0 && writes_in_flight_ == 0;
    });
  }
  if (mutator_->wal_poisoned()) {
    return Status::DataLoss(
        "refusing to drain: the mutator is poisoned (memory and log have "
        "diverged); syncing or checkpointing would legitimize the split");
  }
  KWSDBG_RETURN_NOT_OK(wal_->Sync());
  return Checkpoint();
}

DebugService::~DebugService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool DebugService::AdmitLocked(Task* task) {
  if (options_.max_queue_depth > 0 &&
      queue_.size() >= options_.max_queue_depth) {
    return false;
  }
  queue_.push_back(std::move(*task));
  ++queries_in_flight_;
  return true;
}

Status DebugService::ShedStatus() const {
  return Status::ResourceExhausted(
      "query shed by admission control (queue full at max_queue_depth " +
      std::to_string(options_.max_queue_depth) + ")");
}

BatchResult DebugService::RunBatch(const std::vector<std::string>& queries) {
  return RunBatch(queries, options_.default_deadline_millis);
}

BatchResult DebugService::RunBatch(const std::vector<std::string>& queries,
                                   double deadline_millis) {
  Timer wall;
  BatchResult batch;
  batch.results.resize(queries.size());
  std::vector<Task> tasks(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult* slot = &batch.results[i];
    slot->keyword_query = queries[i];
    tasks[i].query = queries[i];
    tasks[i].deadline_millis = deadline_millis;
    tasks[i].done = [slot](QueryResult&& r) { *slot = std::move(r); };
  }
  std::vector<size_t> shed;
  {
    // The whole batch is admitted under one lock, so admission decisions
    // are atomic across it: at most max_queue_depth of it queues at once.
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      batch.status = Status::Unavailable(
          "service is draining; no new batches admitted");
    } else if (batch_in_flight_) {
      // Concurrent-call guard: one batch at a time keeps each caller's
      // aggregate (wall time, QPS) its own.
      batch.status = Status::InvalidArgument(
          "RunBatch called while another batch is in flight; DebugService "
          "runs one batch at a time");
    } else {
      batch_in_flight_ = true;
      for (size_t i = 0; i < tasks.size(); ++i) {
        if (!AdmitLocked(&tasks[i])) shed.push_back(i);
      }
    }
  }
  if (!batch.status.ok()) {
    for (QueryResult& r : batch.results) r.status = batch.status;
    batch.stats.queries = queries.size();
    batch.stats.failed = queries.size();
    return batch;
  }
  work_cv_.notify_all();
  // Admission control: queries that did not fit under max_queue_depth are
  // shed with a retryable status rather than queued without bound. The
  // caller can resubmit; nothing partial ever ran.
  for (const size_t i : shed) {
    batch.results[i].shed = true;
    batch.results[i].status = ShedStatus();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queries_in_flight_ == 0; });
    batch_in_flight_ = false;
  }
  batch.stats = ComputeServiceStats(batch.results, wall.ElapsedMillis());
  batch.stats.shared_cache = cache_.stats();
  if (mutator_ != nullptr) {
    // Lifetime write-path counters (like shared_cache): interleaved
    // ApplyMutation calls are not per-batch events, so deltas would lie.
    const MutationStats& ms = mutator_->stats();
    batch.stats.mutations_applied =
        ms.mutations_applied.load(std::memory_order_relaxed);
    batch.stats.partial_evictions =
        ms.partial_evictions.load(std::memory_order_relaxed);
    batch.stats.index_patches =
        ms.index_patches.load(std::memory_order_relaxed);
  }
  if (wal_ != nullptr) {
    // Lifetime durability counters, same contract as the write-path block.
    const WalStats ws = wal_->stats();
    batch.stats.wal_records = ws.records_appended;
    batch.stats.wal_fsyncs = ws.fsyncs;
    batch.stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    batch.stats.wal_replayed = wal_replayed_;
    batch.stats.recovery_torn_bytes = recovery_torn_bytes_;
  }
  return batch;
}

Status DebugService::ApplyMutation(const Mutation& m) {
  if (mutator_ == nullptr) {
    return Status::FailedPrecondition(
        "live writes require the mutable DebugService constructor; this "
        "service was built over a const database");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      return Status::Unavailable("service is draining; no new writes admitted");
    }
    KWSDBG_RETURN_NOT_OK(storage_status_);
    // A recovery that failed kDataLoss leaves the in-memory state unknown;
    // admitting writes on top would compound the divergence.
    KWSDBG_RETURN_NOT_OK(durability_status_);
    ++writes_in_flight_;
  }
  const Status applied = mutator_->Apply(m);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (--writes_in_flight_ == 0) idle_cv_.notify_all();
  }
  return applied;
}

Status DebugService::Submit(std::string query, double deadline_millis,
                            std::function<void(QueryResult)> done) {
  Task task;
  task.query = std::move(query);
  task.deadline_millis = deadline_millis;
  task.done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      return Status::Unavailable(
          "service is draining; no new submissions admitted");
    }
    if (!AdmitLocked(&task)) return ShedStatus();
  }
  work_cv_.notify_one();
  return Status::OK();
}

void DebugService::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queries_in_flight_ == 0; });
}

void DebugService::WorkerLoop(size_t worker_id) {
  // The debugger (and with it the SQL session + evaluator) is built on the
  // worker thread and lives for the pool's lifetime, plugged into the
  // shared verdict and flat-index tiers and the shared p_a model.
  DebuggerOptions debugger_options = options_.debugger;
  debugger_options.shared_verdict_cache = &cache_;
  debugger_options.executor.shared_flat_indexes = &flat_indexes_;
  debugger_options.shared_pa_model = pa_model_.get();  // Null = static.
  debugger_options.eval.fences = fences_.get();  // Null = no write path.
  debugger_options.deadline_millis = 0;  // Armed per task below.
  NonAnswerDebugger debugger(db_, lattice_, index_, debugger_options);
  // Backoff jitter source: seeded per worker so a failing run replays the
  // exact same retry schedule (chaos tests depend on this).
  Rng backoff_rng(options_.retry_seed + worker_id * 0x9E3779B97F4A7C15ull);

  bool finished_task = false;
  for (;;) {
    Task task;
    {
      // One lock acquisition both retires the previous task (after its
      // callback returned) and picks up the next one.
      std::unique_lock<std::mutex> lock(mu_);
      if (finished_task && --queries_in_flight_ == 0) idle_cv_.notify_all();
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecuteTask(&debugger, &backoff_rng, worker_id, std::move(task));
    finished_task = true;
  }
}

void DebugService::ExecuteTask(NonAnswerDebugger* debugger, Rng* backoff_rng,
                               size_t worker_id, Task task) {
  QueryResult result;
  result.keyword_query = task.query;
  result.queue_millis = task.enqueued.ElapsedMillis();
  result.worker = worker_id;
  if (!storage_status_.ok()) {
    result.status = storage_status_;
    task.done(std::move(result));
    return;
  }
  Timer exec;
  debugger->set_deadline_millis(task.deadline_millis);
  StatusOr<DebugReport> report_or = debugger->Debug(task.query);
  // Retry transient failures (IsRetryable: kUnavailable /
  // kResourceExhausted) with exponential backoff + jitter, never past the
  // query's deadline. Deadline expiry is not retried: Debug() returns an
  // OK truncated report for it, and a remaining budget too small to back
  // off into is budget spent, so the last typed error stands.
  while (!report_or.ok() && report_or.status().IsRetryable() &&
         result.retries < options_.max_retries) {
    const double exp = static_cast<double>(
        uint64_t{1} << std::min<size_t>(result.retries, 20));
    double backoff_millis =
        std::min(options_.retry_backoff_base_millis * exp,
                 options_.retry_backoff_max_millis) *
        (0.5 + 0.5 * backoff_rng->NextDouble());
    if (backoff_millis < 0) backoff_millis = 0;
    double remaining = 0;  // 0 = unbounded.
    if (task.deadline_millis > 0) {
      remaining = task.deadline_millis - exec.ElapsedMillis();
      if (remaining <= backoff_millis) break;
      remaining -= backoff_millis;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_millis));
    ++result.retries;
    debugger->set_deadline_millis(remaining);
    report_or = debugger->Debug(task.query);
  }
  result.exec_millis = exec.ElapsedMillis();
  if (report_or.ok()) {
    result.report = std::move(report_or).value();
  } else {
    result.status = report_or.status();
  }
  task.done(std::move(result));
}

}  // namespace kwsdbg
