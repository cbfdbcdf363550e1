// Deterministic, seeded fault injection for chaos testing. Named fault
// points are compiled into the storage layer, the SQL executor, the verdict
// cache, and the CSV loader; a fault *schedule* arms a subset of them with a
// trigger (probability / every-Nth / once / bounded count), an error code to
// inject, and an optional latency spike. With no schedule installed the
// per-hit cost is one relaxed atomic load, so fault points are free to leave
// in production builds.
//
// Schedules come from code (`Configure`, `ScopedFaultInjection`) or from the
// environment, installed before main() runs:
//
//   KWSDBG_FAULTS="<point>=<code>[,key=value...][;<point>=<code>...]"
//
//   codes:  unavailable | resource-exhausted | deadline | internal |
//           invalid-argument | notfound | dataloss |
//           ok   (ok = latency-only fault) |
//           crash  (kill the process with _Exit — no atexit handlers, no
//                   flushes; simulates power loss for crash-recovery tests)
//   keys:   p=<0..1>      fire with this probability per eligible hit
//           every=<N>     only hits with ordinal % N == 0 are eligible
//           after=<N>     skip the first N hits entirely
//           times=<N>     stop firing after N fires (once == times=1)
//           latency=<ms>  sleep this long when the fault fires
//           seed=<u64>    seed for the probability draw (default 42)
//
//   example: KWSDBG_FAULTS="executor.join.probe=unavailable,every=11,times=3;
//             cache.verdict.lookup=unavailable,p=0.05,seed=7"
//
// Injected statuses always carry the fault-point name in the message, so an
// error surfacing at the service boundary names the layer that failed.
// Everything is deterministic given the schedule: triggers draw from a
// per-point seeded Rng and per-point hit counters (counters are global
// across threads, so cross-thread interleaving affects *which* worker sees
// a fire, never how many fire).
#ifndef KWSDBG_COMMON_FAULT_INJECTOR_H_
#define KWSDBG_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace kwsdbg {

/// One armed fault: where, when, and what to inject.
struct FaultSpec {
  std::string point;                           ///< Fault-point name.
  StatusCode code = StatusCode::kUnavailable;  ///< kOk = latency-only.
  bool crash = false;  ///< Fire = std::_Exit(kCrashExitCode), not a Status.
  double probability = 1.0;  ///< Fire chance per eligible hit.
  uint64_t every = 0;        ///< Eligible when hit# % every == 0 (1-based);
                             ///< 0 = every hit eligible.
  uint64_t after = 0;        ///< First `after` hits are never eligible.
  uint64_t times = 0;        ///< Max fires; 0 = unlimited.
  double latency_millis = 0; ///< Injected sleep when the fault fires.
  uint64_t seed = 42;        ///< Probability-draw seed.
};

/// Per-point counters for assertions and bench output.
struct FaultPointStats {
  uint64_t hits = 0;   ///< Times the point was reached while armed.
  uint64_t fires = 0;  ///< Times it actually injected (error or latency).
};

/// Process-wide fault-point registry. Thread-safe: Hit() may be called from
/// any number of service workers; Configure/Clear are meant for the quiet
/// moments between batches (a concurrent Hit sees either schedule, never a
/// torn one — state is swapped under the same mutex Hit takes).
class FaultInjector {
 public:
  /// Exit code of a fired `crash` fault, so a forking harness can tell an
  /// injected kill from an unrelated child failure.
  static constexpr int kCrashExitCode = 86;

  /// The singleton every KWSDBG_FAULT_POINT macro consults. Its first access
  /// — forced at static-init time, since the Enabled() fast path never calls
  /// this — installs any schedule found in $KWSDBG_FAULTS (a malformed value
  /// is reported to stderr and ignored rather than aborting the host).
  static FaultInjector& Global();

  /// Fast-path gate: false whenever no schedule is installed anywhere.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Parses and installs a schedule, replacing the previous one (empty
  /// string = clear). Counters reset. See the header comment for syntax.
  Status Configure(const std::string& schedule);

  /// Installs one parsed spec (keeps other points' specs).
  void Install(FaultSpec spec);

  /// Removes all armed faults and resets counters.
  void Clear();

  /// Parses a single "<point>=<code>[,k=v...]" spec.
  static StatusOr<FaultSpec> ParseSpec(const std::string& spec);

  /// The fault-point hook: returns OK unless an armed fault fires, in which
  /// case the injected Status names the point ("injected fault at <point>").
  /// A latency-only fault (code=kOk) sleeps and returns OK.
  Status Hit(std::string_view point);

  /// Counters for one point (zeros when unknown).
  FaultPointStats StatsFor(const std::string& point) const;

  /// Total fires across all points since the last Configure/Clear.
  uint64_t TotalFires() const;

  /// "point: hits=H fires=F" per armed point, for bench/CLI output.
  std::string Summary() const;

 private:
  FaultInjector() = default;

  struct PointState {
    FaultSpec spec;
    FaultPointStats stats;
    Rng rng{42};
  };

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::map<std::string, PointState, std::less<>> points_;  // guarded by mu_
};

/// Test helper: installs a schedule on the global injector for the scope's
/// lifetime, clearing it on exit (tests must not leak faults into each
/// other — gtest cases share the process).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const std::string& schedule);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

/// Fault-point macro for Status/StatusOr-returning functions: propagates an
/// injected error to the caller. One relaxed load when no schedule is armed.
#define KWSDBG_FAULT_POINT(point)                                   \
  do {                                                              \
    if (::kwsdbg::FaultInjector::Enabled()) {                       \
      ::kwsdbg::Status _kwsdbg_fault =                              \
          ::kwsdbg::FaultInjector::Global().Hit(point);             \
      if (!_kwsdbg_fault.ok()) return _kwsdbg_fault;                \
    }                                                               \
  } while (0)

/// Fault-point check for degrade-don't-fail sites (the text index):
/// true when an armed fault fires, letting the caller fall back to a slower
/// correct path instead of surfacing an error.
inline bool FaultPointFires(std::string_view point) {
  return FaultInjector::Enabled() &&
         !FaultInjector::Global().Hit(point).ok();
}

}  // namespace kwsdbg

#endif  // KWSDBG_COMMON_FAULT_INJECTOR_H_
