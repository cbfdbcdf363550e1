// `served`: a mutable DebugService (default options, two workers) over the
// same data. One generator thread plays one closed-loop client per worker,
// drawing requests Zipf-skewed from a seeded hot set of 2-3 keyword queries
// that fits the verdict cache, and itself applies a fixed small share of
// live writes (updates and inserts on the tables the hot queries bind). The
// workers' calls cannot be wrapped from outside, so the traced run splits
// each request with the QueryResult's queue and exec times and the report's
// own phase timers; the rest of Debug() stays unattributed.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/query_generator.h"
#include "debugger/non_answer_debugger.h"
#include "env.h"
#include "service/debug_service.h"
#include "text/tokenizer.h"
#include "trace.h"
#include "workloads.h"

namespace kwsdbg::perfbench {
namespace {

constexpr size_t kWorkers = 2;
// One client per worker, each waiting for its report before sending the
// next (a developer reads one debug report before the next query), so the
// queue holds no standing backlog and latency is service time.
constexpr size_t kOutstanding = kWorkers;
constexpr size_t kHotSetSize = 256;    // distinct hot queries
constexpr size_t kWriteEvery = 500;    // one write per this many requests
constexpr double kTraceSliceS = 0.5;   // traced/untraced alternation

/// One submitted request; written by the worker's callback, read by the
/// generator only after WaitIdle().
struct Slot {
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  bool traced = false;
  size_t query = 0;  ///< Index in the hot set.
  /// SQL queries the request issued (0 when the verdict cache answered
  /// every node): with the query, what decides the request's work.
  size_t sql = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  double debug_ms = 0;
  double bind_ms = 0;
  double prune_ms = 0;
  double traversal_ms = 0;  ///< Strategy run time including SQL.
  double sql_ms = 0;
  double index_build_ms = 0;
  size_t retained_nodes = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t rows_probed = 0;
  size_t rows_filtered = 0;
  size_t semijoin_kills = 0;
  std::string signature;  ///< Filled for the output check only.

  void Fill(const QueryResult& r) {
    queue_ms = r.queue_millis;
    exec_ms = r.exec_millis;
    debug_ms = r.report.debug_millis;
    bind_ms = r.report.bind_millis;
    for (const InterpretationReport& interp : r.report.interpretations) {
      const TraversalStats& t = interp.traversal_stats;
      prune_ms += interp.prune_stats.prune_millis + interp.prune_stats.mtn_millis;
      retained_nodes += interp.prune_stats.retained_nodes;
      traversal_ms += t.total_millis;
      sql_ms += t.sql_millis;
      index_build_ms += t.index_build_millis;
      cache_hits += t.cache_hits;
      cache_misses += t.cache_misses;
      rows_probed += t.rows_probed;
      rows_filtered += t.rows_filtered;
      semijoin_kills += t.semijoin_eliminations;
    }
  }
};

/// Closed-loop client: at most kOutstanding requests in flight.
class Client {
 public:
  explicit Client(DebugService* service) : service_(service) {}

  /// Blocks until a request slot frees up, then submits `query`, hot-set
  /// entry `index`.
  void Submit(const std::string& query, size_t index, bool traced,
              bool keep_signature) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return outstanding_ < kOutstanding; });
      ++outstanding_;
    }
    slots_.emplace_back();
    Slot* slot = &slots_.back();
    slot->traced = traced;
    slot->query = index;
    slot->submit_ns = NowNs();
    Status status = service_->Submit(
        query, /*deadline_millis=*/0,
        [this, slot, keep_signature](QueryResult r) {
          slot->done_ns = NowNs();
          slot->ok = r.status.ok() && !r.shed && !r.report.truncated;
          for (const InterpretationReport& interp : r.report.interpretations) {
            slot->sql += interp.traversal_stats.sql_queries;
          }
          if (slot->traced) slot->Fill(r);
          if (keep_signature && r.status.ok()) {
            slot->signature = r.report.ClassificationSignature();
          }
          Release();
        });
    if (!status.ok()) {  // shed: counts as failed, never ran
      slot->done_ns = NowNs();
      Release();
    }
  }

  /// Waits for every callback; slots are then safe to read.
  void Drain() { service_->WaitIdle(); }

  std::deque<Slot>& slots() { return slots_; }

 private:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
    cv_.notify_one();
  }

  DebugService* service_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;  // guarded by mu_
  std::deque<Slot> slots_;  // appended by the generator thread only
};

/// Seeded write stream: updates and inserts on the tables the hot queries
/// bind. The text written is a pair of hot keywords the table already
/// holds, so a write changes rows and verdicts but not which tables a
/// keyword binds to: the hot queries keep their interpretations and the
/// per-request work does not drift as writes accumulate.
class WriteStream {
 public:
  WriteStream(const Database& db, const InvertedIndex& index,
              const std::vector<std::string>& hot_queries, uint64_t seed)
      : rng_(seed ^ 0x5752495445ull) {
    std::map<std::string, std::set<std::string>> words;
    for (const std::string& query : hot_queries) {
      for (const std::string& keyword : Tokenize(query)) {
        for (const std::string& t : index.TablesContaining(keyword)) {
          words[t].insert(keyword);
        }
      }
    }
    for (const auto& [name, held] : words) {
      const Table* t = db.FindTable(name);
      if (t == nullptr || t->schema().TextColumnIndices().empty()) continue;
      targets_.push_back({name, {held.begin(), held.end()},
                          static_cast<int64_t>(t->num_rows()) + 1});
    }
  }

  bool empty() const { return targets_.empty(); }

  Mutation Next(const Database& db) {
    Target& target = targets_[rng_.Uniform(targets_.size())];
    const Table& table = *db.FindTable(target.table);
    const std::vector<std::string>& w = target.words;
    const std::string text =
        w[rng_.Uniform(w.size())] + " " + w[rng_.Uniform(w.size())];
    if (rng_.Bernoulli(0.5)) {
      return Mutation::Update(target.table, rng_.Uniform(table.num_rows()),
                              table.schema().TextColumnIndices().front(),
                              Value(text));
    }
    Tuple row;
    for (const Column& column : table.schema().columns()) {
      switch (column.type) {
        case DataType::kInt64:
          row.emplace_back(target.next_id);
          break;
        case DataType::kDouble:
          row.emplace_back(0.0);
          break;
        case DataType::kString:
          row.emplace_back(text);
          break;
      }
    }
    ++target.next_id;
    return Mutation::Insert(target.table, std::move(row));
  }

 private:
  struct Target {
    std::string table;
    std::vector<std::string> words;  ///< Hot keywords the table holds.
    int64_t next_id = 1;             ///< Next unused id for inserts.
  };
  Rng rng_;
  std::vector<Target> targets_;
};

std::vector<std::string> MakeHotSet(const InvertedIndex& index, uint64_t seed) {
  QueryGeneratorConfig config;
  config.seed = seed;
  config.min_keywords = 2;
  config.max_keywords = 3;
  RandomQueryGenerator generator(&index, config);
  std::vector<std::string> hot;
  std::set<std::string> seen;
  while (hot.size() < kHotSetSize) {
    std::string query = generator.Next();
    if (seen.insert(query).second) hot.push_back(std::move(query));
  }
  return hot;
}

}  // namespace

Status RunServedWorkload(const Args& args, Outcome* out) {
  KWSDBG_ASSIGN_OR_RETURN(std::unique_ptr<Env> env, BuildEnv({}));
  ServiceOptions options;
  options.num_workers = kWorkers;
  DebugService service(env->db(), env->lattice.get(), env->index.get(),
                       options);
  if (service.mutator() == nullptr) {
    return Status::Internal("service was built without a write path");
  }
  const std::vector<std::string> hot = MakeHotSet(*env->index, args.seed);
  WriteStream writes(*env->db(), *env->index, hot, args.seed);
  if (writes.empty()) return Status::Internal("hot set binds no text table");
  Rng rng(args.seed);
  // Request skew over the hot set: the generator's own default for
  // query-log popularity, so the benchmark adds no skew of its own.
  const double theta = QueryGeneratorConfig{}.popularity_theta;
  ZipfSampler sampler(hot.size(), theta);

  // Warm-up, charged to set-up: every hot query once fills the verdict
  // cache and builds the shard's join indexes. Its classifications are kept
  // to show that the writes change some of them.
  Client warm(&service);
  for (size_t i = 0; i < hot.size(); ++i) {
    warm.Submit(hot[i], i, /*traced=*/true, /*keep_signature=*/true);
  }
  warm.Drain();
  double setup_index_build_ms = 0;
  for (const Slot& slot : warm.slots()) {
    if (!slot.ok) return Status::Internal("warm-up request failed");
    setup_index_build_ms += slot.index_build_ms;
  }
  const VerdictCacheStats cache = service.shared_cache()->stats();
  const double setup_s = SecondsSince(args.start_ns);

  RecordEnv(*env, out);
  out->Record("load",
              "{\"workload_seed\":" + std::to_string(args.seed) +
                  ",\"workers\":" + std::to_string(kWorkers) +
                  ",\"outstanding\":" + std::to_string(kOutstanding) +
                  ",\"hot_set\":" + std::to_string(hot.size()) +
                  ",\"zipf_theta\":" + std::to_string(theta) +
                  ",\"write_share\":" + std::to_string(1.0 / kWriteEvery) +
                  ",\"verdict_cache_capacity\":" +
                  std::to_string(options.shared_cache_capacity) +
                  ",\"verdict_entries_after_warmup\":" +
                  std::to_string(cache.entries) + "}");
  // Timed window. Traced runs alternate untraced and traced slices; only
  // traced requests copy the per-layer fields out of their QueryResult.
  Client client(&service);
  std::vector<double> apply_ms;
  const uint64_t evictions_before =
      service.mutator()->stats().partial_evictions.load();
  const int64_t window_start = NowNs();
  int64_t window_end = 0;
  for (size_t op = 1;; ++op) {
    const int64_t now = NowNs();
    const double elapsed = static_cast<double>(now - window_start) / 1e9;
    if (elapsed >= args.seconds) {
      window_end = now;
      break;
    }
    if (op % kWriteEvery == 0) {
      const Mutation m = writes.Next(*env->db());
      const int64_t t0 = NowNs();
      const Status status = service.ApplyMutation(m);
      apply_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      out->Check(status.ok());
      continue;
    }
    const bool traced =
        args.trace && static_cast<int64_t>(elapsed / kTraceSliceS) % 2 == 1;
    const size_t query = sampler.Sample(&rng);
    client.Submit(hot[query], query, traced, /*keep_signature=*/false);
  }
  client.Drain();
  const uint64_t write_evictions =
      service.mutator()->stats().partial_evictions.load() - evictions_before;

  // run.py computes the latency and throughput metrics from these samples,
  // pooled over its processes.
  const double window_s = static_cast<double>(window_end - window_start) / 1e9;
  std::vector<double> latency_ms;
  std::vector<double> query;
  std::vector<double> sql;
  size_t completed = 0;
  for (const Slot& slot : client.slots()) {
    out->Check(slot.ok);
    query.push_back(static_cast<double>(slot.query));
    sql.push_back(static_cast<double>(slot.sql));
    latency_ms.push_back(
        slot.ok ? static_cast<double>(slot.done_ns - slot.submit_ns) / 1e6
                : std::numeric_limits<double>::infinity());
    if (slot.ok && slot.done_ns <= window_end) ++completed;
  }
  std::sort(apply_ms.begin(), apply_ms.end());
  if (!args.trace) {
    AddProcessMetrics(setup_s, out);
  } else {
    LayerTotals layers;
    layers.setup = env->times;
    layers.setup_s = setup_s;
    layers.index_build_ms = setup_index_build_ms;
    // Slices alternate by submit time: odd slices are traced.
    double slice_s[2] = {0, 0};
    for (double t = 0; t < window_s; t += kTraceSliceS) {
      slice_s[static_cast<size_t>(t / kTraceSliceS + 0.5) % 2] +=
          std::min(kTraceSliceS, window_s - t);
    }
    size_t untraced = 0;
    double busy_ms = 0;
    for (const Slot& slot : client.slots()) {
      if (!slot.traced) {
        ++untraced;
        continue;
      }
      const double wall =
          static_cast<double>(slot.done_ns - slot.submit_ns) / 1e6;
      ++layers.requests;
      layers.wall_ms += wall;
      layers.queue_ms += slot.queue_ms;
      layers.handoff_ms += wall - slot.queue_ms - slot.exec_ms;
      layers.service_exec_ms += slot.exec_ms - slot.debug_ms;
      layers.bind_ms += slot.bind_ms;
      layers.prune_ms += slot.prune_ms;
      layers.traversal_ms += slot.traversal_ms - slot.sql_ms;
      layers.sql_ms += slot.sql_ms;
      // Debug() has no timer for report assembly: what its phase timers
      // leave of debug_millis is not booked to any layer.
      layers.unattributed_ms +=
          slot.debug_ms - slot.bind_ms - slot.prune_ms - slot.traversal_ms;
      layers.index_build_ms += slot.index_build_ms;
      layers.retained_nodes += slot.retained_nodes;
      layers.sql_queries += slot.sql;
      layers.cache_hits += slot.cache_hits;
      layers.cache_misses += slot.cache_misses;
      layers.rows_probed += slot.rows_probed;
      layers.rows_filtered += slot.rows_filtered;
      layers.semijoin_kills += slot.semijoin_kills;
      busy_ms += slot.exec_ms;
    }
    layers.worker_busy_ratio = busy_ms / (kWorkers * slice_s[1] * 1e3);
    layers.untraced_qps = untraced / slice_s[0];
    layers.traced_qps = layers.requests / slice_s[1];
    layers.writes = apply_ms.size();
    layers.write_evictions = write_evictions;
    layers.apply_p50_ms = apply_ms.empty() ? 0 : Percentile(apply_ms, 0.5);
    AddLayerMetrics(layers, /*gate_coverage=*/false, out);
  }

  // Output check: after the writes, the hot set served from the (possibly
  // stale) verdict cache must classify like a fresh cache-less debugger
  // over the mutated data with a rebuilt index. The check can only catch a
  // stale verdict if the writes changed some classification, so run.py
  // also fails a run in which none changed since the warm-up.
  Client check(&service);
  for (size_t i = 0; i < hot.size(); ++i) {
    check.Submit(hot[i], i, /*traced=*/false, /*keep_signature=*/true);
  }
  check.Drain();
  const InvertedIndex rebuilt = InvertedIndex::Build(*env->db());
  DebuggerOptions oracle_options;
  oracle_options.verdict_cache_capacity = 0;
  NonAnswerDebugger oracle(env->db(), env->lattice.get(), &rebuilt,
                           oracle_options);
  size_t mismatches = 0;
  size_t changed = 0;
  for (size_t i = 0; i < hot.size(); ++i) {
    StatusOr<DebugReport> truth = oracle.Debug(hot[i]);
    const Slot& slot = check.slots()[i];
    const bool ok = slot.ok && truth.ok() && !truth->truncated &&
                    truth->ClassificationSignature() == slot.signature;
    out->Check(ok);
    if (!ok) ++mismatches;
    if (truth.ok() &&
        truth->ClassificationSignature() != warm.slots()[i].signature) {
      ++changed;
    }
  }
  out->Note("output check: " + std::to_string(hot.size()) +
            " hot queries after " + std::to_string(apply_ms.size()) +
            " writes vs a cache-less debugger on a rebuilt index, " +
            std::to_string(mismatches) + " mismatch(es); the writes changed " +
            std::to_string(changed) + " classification(s) since the warm-up");
  out->samples = "{\"clients\":" + std::to_string(kOutstanding) +
                 ",\"window_s\":" + JsonNumber(window_s) +
                 ",\"completed\":" + std::to_string(completed) +
                 ",\"changed\":" + std::to_string(changed) +
                 ",\"write_ms\":" + JsonNumbers(apply_ms) +
                 ",\"query\":" + JsonNumbers(query) +
                 ",\"sql\":" + JsonNumbers(sql) +
                 ",\"latency_ms\":" + JsonNumbers(latency_ms) + "}";
  return Status::OK();
}

}  // namespace kwsdbg::perfbench
