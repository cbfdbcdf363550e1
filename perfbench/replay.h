// NonAnswerDebugger::Debug() rebuilt from the layers' public calls, so the
// traced run can open a span around each one: Phase 1 binding, Phase 1-2
// pruning, the Phase 3 strategy run (with the executor's own time charged
// to `sql`), and report assembly. The same replay, driven by the RE
// baseline, is the `paper` workload's output oracle.
#ifndef KWSDBG_PERFBENCH_REPLAY_H_
#define KWSDBG_PERFBENCH_REPLAY_H_

#include <functional>
#include <memory>
#include <string>

#include "debugger/debug_report.h"
#include "debugger/non_answer_debugger.h"
#include "kws/keyword_binding.h"
#include "trace.h"

namespace kwsdbg::perfbench {

/// Span names of the traced layers.
inline constexpr const char* kRequestSpan = "request";
inline constexpr const char* kBindSpan = "kws.bind";
inline constexpr const char* kPruneSpan = "kws.prune";
inline constexpr const char* kTraversalSpan = "traversal.run";
inline constexpr const char* kSqlLayer = "sql.exec";
inline constexpr const char* kReportSpan = "debugger.report";

using StrategyFactory = std::function<std::unique_ptr<TraversalStrategy>()>;

/// Replays Debug() for one session: the same database, lattice, index,
/// executor and verdict tier the session's debugger uses.
class Replayer {
 public:
  Replayer(const Database* db, const Lattice* lattice,
           const InvertedIndex* index, Executor* executor,
           VerdictCache* cache, const DebuggerOptions& options);

  /// Runs the pipeline for `query` with a fresh strategy from `make`,
  /// recording spans under `request` when `tracer` is non-null.
  StatusOr<DebugReport> Run(const std::string& query,
                            const StrategyFactory& make, Tracer* tracer,
                            uint32_t request);

 private:
  const Database* db_;
  const Lattice* lattice_;
  const InvertedIndex* index_;
  Executor* executor_;
  VerdictCache* cache_;
  DebuggerOptions options_;
  KeywordBinder binder_;
};

}  // namespace kwsdbg::perfbench

#endif  // KWSDBG_PERFBENCH_REPLAY_H_
