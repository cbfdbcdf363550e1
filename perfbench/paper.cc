// `paper` and `spilled`: the paper's own experiment (Table 2 Q1-Q10 under
// BU, TD, BUWR, TDWR and SBH at lattice level 5, verdict cache off), run by
// one closed-loop client over one warm session per strategy. `spilled` sends
// the same queries to the debugger's default strategy only, with the large
// tables behind the buffer pool at a quarter of their footprint and the
// posting lists on disk.
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/return_everything.h"
#include "common/rng.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "env.h"
#include "replay.h"
#include "storage/buffer_pool.h"
#include "trace.h"
#include "workloads.h"

namespace kwsdbg::perfbench {
namespace {

constexpr size_t kMaxTraceEvents = 20000;
/// Fewest passes in one process's window. run.py pools three processes, so
/// every request type is timed at least six times.
constexpr size_t kMinPasses = 2;

struct Session {
  TraversalKind kind = TraversalKind::kBottomUp;
  std::unique_ptr<NonAnswerDebugger> debugger;
  std::unique_ptr<Replayer> replayer;
};

/// One request of a pass: a Table 2 query sent to one strategy's session.
struct Request {
  size_t session = 0;
  size_t query = 0;
};

DebuggerOptions SessionOptions(TraversalKind kind) {
  DebuggerOptions options;
  options.strategy = kind;
  // The paper's setting: every verdict is computed by SQL.
  options.verdict_cache_capacity = 0;
  return options;
}

/// The strategies a workload sends requests to. `spilled` uses only the
/// debugger's default: its requests cost on average about 25 times
/// `paper`'s, and with all five strategies a 30-second window timed each
/// request type only six times, too few for a steady floor (see
/// perfbench/README.md).
std::vector<TraversalKind> Strategies(bool spill) {
  if (spill) return {DebuggerOptions{}.strategy};
  return AllTraversalKinds();
}

std::vector<Session> MakeSessions(const Env& env, bool spill) {
  std::vector<Session> sessions;
  for (TraversalKind kind : Strategies(spill)) {
    Session s;
    s.kind = kind;
    s.debugger = std::make_unique<NonAnswerDebugger>(
        env.db(), env.lattice.get(), env.index.get(), SessionOptions(kind));
    s.replayer = std::make_unique<Replayer>(
        env.db(), env.lattice.get(), env.index.get(), s.debugger->executor(),
        s.debugger->verdict_cache(), s.debugger->options());
    sessions.push_back(std::move(s));
  }
  return sessions;
}

/// Layer counters summed over every session's executor, the buffer pool and
/// the posting store.
struct Counters {
  size_t rows_probed = 0;
  size_t rows_filtered = 0;
  size_t semijoin_kills = 0;
  double index_build_ms = 0;
  size_t page_hits = 0;
  size_t page_reads = 0;
  size_t page_evictions = 0;
  size_t pool_misses = 0;
  size_t posting_reads = 0;

  static Counters Read(const std::vector<Session>& sessions, const Env& env) {
    Counters c;
    for (const Session& s : sessions) {
      const ExecutorStats& e = s.debugger->executor()->stats();
      c.rows_probed += e.rows_probed;
      c.rows_filtered += e.rows_filtered;
      c.semijoin_kills += e.semijoin_eliminations;
      c.index_build_ms += e.index_build_millis;
    }
    const StorageStats storage = env.db()->storage_stats();
    c.page_hits = storage.page_hits;
    c.page_reads = storage.page_reads;
    c.page_evictions = storage.page_evictions;
    if (env.db()->buffer_pool() != nullptr) {
      c.pool_misses = env.db()->buffer_pool()->stats().page_misses;
    }
    c.posting_reads = env.index->io_stats().posting_reads;
    return c;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    rows_probed += after.rows_probed - before.rows_probed;
    rows_filtered += after.rows_filtered - before.rows_filtered;
    semijoin_kills += after.semijoin_kills - before.semijoin_kills;
    index_build_ms += after.index_build_ms - before.index_build_ms;
    page_hits += after.page_hits - before.page_hits;
    page_reads += after.page_reads - before.page_reads;
    page_evictions += after.page_evictions - before.page_evictions;
    pool_misses += after.pool_misses - before.pool_misses;
    posting_reads += after.posting_reads - before.posting_reads;
  }
};

/// Whether a report reproduces the classification recorded for its request.
bool Matches(const StatusOr<DebugReport>& report, const std::string& expected) {
  return report.ok() && !report->truncated &&
         report->ClassificationSignature() == expected;
}

/// Re-derives every Table 2 query with the RE baseline (one SQL query per
/// retained node, no lattice inference) on a fresh session and compares
/// each strategy's recorded classification with it.
void CheckAgainstReturnEverything(const Env& env,
                                  const std::vector<std::string>& expected,
                                  size_t num_sessions, Outcome* out) {
  const std::vector<WorkloadQuery>& queries = PaperWorkload();
  const DebuggerOptions options = SessionOptions(TraversalKind::kBottomUp);
  Executor executor(env.db(), options.executor);
  executor.RegisterTextIndex(env.index.get());
  Replayer oracle(env.db(), env.lattice.get(), env.index.get(), &executor,
                  nullptr, options);
  size_t mismatches = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    StatusOr<DebugReport> truth =
        oracle.Run(queries[q].text, MakeReturnEverything, nullptr, 0);
    for (size_t s = 0; s < num_sessions; ++s) {
      const bool ok = truth.ok() && !truth->truncated &&
                      truth->ClassificationSignature() ==
                          expected[s * queries.size() + q];
      out->Check(ok);
      if (!ok) ++mismatches;
    }
  }
  out->Note("output check: RE oracle, " + std::to_string(queries.size()) +
            " queries x " + std::to_string(num_sessions) + " strategies, " +
            std::to_string(mismatches) + " mismatch(es)");
}

/// Runs every request on a resident copy of the same data and compares.
Status CheckAgainstResident(const std::vector<std::string>& expected,
                            Outcome* out) {
  KWSDBG_ASSIGN_OR_RETURN(std::unique_ptr<Env> resident, BuildEnv({}));
  std::vector<Session> sessions = MakeSessions(*resident, /*spill=*/true);
  const std::vector<WorkloadQuery>& queries = PaperWorkload();
  size_t mismatches = 0;
  for (size_t s = 0; s < sessions.size(); ++s) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const bool ok = Matches(sessions[s].debugger->Debug(queries[q].text),
                              expected[s * queries.size() + q]);
      out->Check(ok);
      if (!ok) ++mismatches;
    }
  }
  out->Note("output check: resident copy, " + std::to_string(expected.size()) +
            " requests, " + std::to_string(mismatches) + " mismatch(es)");
  return Status::OK();
}

}  // namespace

Status RunPaperWorkload(const Args& args, bool spill, Outcome* out) {
  EnvOptions env_options;
  env_options.spill = spill;
  env_options.spill_dir = args.scratch_dir;
  KWSDBG_ASSIGN_OR_RETURN(std::unique_ptr<Env> env, BuildEnv(env_options));
  std::vector<Session> sessions = MakeSessions(*env, spill);
  const std::vector<WorkloadQuery>& queries = PaperWorkload();

  // One pass sends every (strategy, query) pair once, in a seeded order
  // that every pass repeats: a pass then leaves the buffer pool in the state
  // it found it, so counts repeat exactly from pass to pass.
  std::vector<Request> order;
  for (size_t s = 0; s < sessions.size(); ++s) {
    for (size_t q = 0; q < queries.size(); ++q) order.push_back({s, q});
  }
  Rng rng(args.seed);
  rng.Shuffle(&order);
  auto key = [&](const Request& r) {
    return r.session * queries.size() + r.query;
  };

  // Warm-up pass, charged to set-up: builds each session's join indexes and
  // keyword match sets, and records each request's classification.
  std::vector<std::string> expected(order.size());
  for (const Request& r : order) {
    StatusOr<DebugReport> report =
        sessions[r.session].debugger->Debug(queries[r.query].text);
    if (!report.ok()) return report.status();
    if (report->truncated) return Status::Internal("warm-up report truncated");
    expected[key(r)] = report->ClassificationSignature();
  }
  const double setup_index_build_ms =
      Counters::Read(sessions, *env).index_build_ms;
  const double setup_s = SecondsSince(args.start_ns);

  RecordEnv(*env, out);
  out->Record("load", "{\"workload_seed\":" + std::to_string(args.seed) +
                          ",\"clients\":1,\"sessions\":" +
                          std::to_string(sessions.size()) +
                          ",\"requests_per_pass\":" +
                          std::to_string(order.size()) +
                          ",\"verdict_cache_capacity\":0,\"write_share\":0}");

  // One pass; traced passes replay Debug() with a span around each layer
  // call and sum the reports' own counters into `layers`. `by_type`
  // collects each request's latency under its (strategy, query) pair.
  auto run_pass = [&](Tracer* tracer, LayerTotals* layers,
                      std::vector<std::vector<double>>* by_type) {
    for (const Request& r : order) {
      Session& s = sessions[r.session];
      const std::string& text = queries[r.query].text;
      const int64_t t0 = NowNs();
      StatusOr<DebugReport> report =
          tracer == nullptr
              ? s.debugger->Debug(text)
              : s.replayer->Run(
                    text, [&] { return MakeStrategy(s.kind); }, tracer,
                    static_cast<uint32_t>(layers->requests));
      const int64_t t1 = NowNs();
      const bool ok = Matches(report, expected[key(r)]);
      out->Check(ok);
      if (by_type != nullptr) {
        (*by_type)[key(r)].push_back(
            ok ? static_cast<double>(t1 - t0) / 1e6
               : std::numeric_limits<double>::infinity());
      }
      if (layers != nullptr && report.ok()) {
        ++layers->requests;
        const TraversalStats stats = report->AggregateTraversalStats();
        layers->sql_queries += stats.sql_queries;
        layers->cache_hits += stats.cache_hits;
        layers->cache_misses += stats.cache_misses;
        for (const InterpretationReport& interp : report->interpretations) {
          layers->retained_nodes += interp.prune_stats.retained_nodes;
        }
      }
    }
  };

  int64_t pass_ns = 0;  // the last pass's duration
  const int64_t window_start = NowNs();
  auto window_s = [&] {
    return static_cast<double>(NowNs() - window_start) / 1e9;
  };
  if (!args.trace) {
    // Whole passes only, so every request type weighs the same; the window
    // ends at the pass boundary nearest --seconds. run.py computes the
    // latency and throughput metrics from these samples, pooled over its
    // processes.
    std::vector<std::vector<double>> by_type(order.size());
    std::vector<double> pass_s;
    do {
      pass_ns = NowNs();
      run_pass(nullptr, nullptr, &by_type);
      pass_ns = NowNs() - pass_ns;
      pass_s.push_back(static_cast<double>(pass_ns) / 1e9);
    } while (window_s() + static_cast<double>(pass_ns) / 2e9 < args.seconds ||
             pass_s.size() < kMinPasses);
    std::string by_type_ms;
    for (const std::vector<double>& latencies : by_type) {
      if (!by_type_ms.empty()) by_type_ms += ",";
      by_type_ms += JsonNumbers(latencies);
    }
    out->samples = "{\"clients\":1,\"requests_per_pass\":" +
                   std::to_string(order.size()) +
                   ",\"pass_s\":" + JsonNumbers(pass_s) +
                   ",\"by_type_ms\":[" + by_type_ms + "]}";
    AddProcessMetrics(setup_s, out);
  } else {
    // Untraced and traced passes alternate, so both see the same machine
    // state; their time ratio gives the tracing overhead.
    Tracer tracer;
    LayerTotals layers;
    Counters traced;
    int64_t untraced_ns = 0;
    int64_t traced_ns = 0;
    do {
      int64_t t = NowNs();
      run_pass(nullptr, nullptr, nullptr);
      untraced_ns += NowNs() - t;
      const Counters before = Counters::Read(sessions, *env);
      t = NowNs();
      run_pass(&tracer, &layers, nullptr);
      traced_ns += NowNs() - t;
      traced.AddDelta(before, Counters::Read(sessions, *env));
      pass_ns = NowNs() - t;
    } while (window_s() + static_cast<double>(pass_ns) / 1e9 < args.seconds);

    const std::map<std::string, double> self = tracer.SelfMillis();
    auto self_of = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    layers.setup = env->times;
    layers.setup_s = setup_s;
    layers.index_build_ms = setup_index_build_ms + traced.index_build_ms;
    layers.wall_ms = tracer.RootMillis(kRequestSpan);
    layers.unattributed_ms = self_of(kRequestSpan);
    layers.bind_ms = self_of(kBindSpan);
    layers.prune_ms = self_of(kPruneSpan);
    layers.traversal_ms = self_of(kTraversalSpan);
    layers.sql_ms = self_of(kSqlLayer);
    layers.report_ms = self_of(kReportSpan);
    layers.rows_probed = traced.rows_probed;
    layers.rows_filtered = traced.rows_filtered;
    layers.semijoin_kills = traced.semijoin_kills;
    layers.page_hits = traced.page_hits;
    layers.page_reads = traced.page_reads;
    layers.page_evictions = traced.page_evictions;
    layers.pool_misses = traced.pool_misses;
    layers.posting_reads = traced.posting_reads;
    const double requests = static_cast<double>(layers.requests);
    layers.untraced_qps = requests / (static_cast<double>(untraced_ns) / 1e9);
    layers.traced_qps = requests / (static_cast<double>(traced_ns) / 1e9);
    AddLayerMetrics(layers, /*gate_coverage=*/true, out);
    if (!args.trace_out.empty() &&
        !tracer.WriteChromeJson(args.trace_out, kMaxTraceEvents)) {
      return Status::Internal("cannot write trace " + args.trace_out);
    }
  }

  // Output checks, outside the timed window and after peak RSS was read.
  if (spill) return CheckAgainstResident(expected, out);
  CheckAgainstReturnEverything(*env, expected, sessions.size(), out);
  return Status::OK();
}

}  // namespace kwsdbg::perfbench
