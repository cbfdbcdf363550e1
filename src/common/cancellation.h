// Cooperative cancellation for long-running debug pipelines. A
// CancellationToken is armed with a wall-clock budget (or cancelled
// explicitly); the executor, evaluator, and traversal strategies poll it at
// safe boundaries and unwind with StatusCode::kDeadlineExceeded. Polling is
// lock-free — one relaxed atomic load on the fast path — so the query's
// thread polls it cheaply while any other thread may fire it through
// RequestCancel. A fired token never produces a verdict: callers that see
// the deadline status must treat the work as unfinished, not as "empty
// result".
#ifndef KWSDBG_COMMON_CANCELLATION_H_
#define KWSDBG_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace kwsdbg {

/// Re-armable cancellation flag + optional deadline. Thread-safe: any
/// number of threads may poll Expired() while one controller thread arms or
/// cancels. Arm/Reset must not race with pollers mid-query (the service
/// arms between queries, when the worker owns the token exclusively).
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Arms a deadline `budget_millis` from now; a budget <= 0 disarms the
  /// deadline (the token then only fires via RequestCancel).
  void Arm(double budget_millis) {
    cancelled_.store(false, std::memory_order_relaxed);
    if (budget_millis > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(budget_millis));
      deadline_ns_.store(deadline.time_since_epoch().count(),
                         std::memory_order_relaxed);
      armed_.store(true, std::memory_order_release);
    } else {
      armed_.store(false, std::memory_order_release);
    }
  }

  /// Fires the token immediately (explicit cancel, e.g. client went away).
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }

  /// Clears both the flag and any armed deadline.
  void Reset() {
    armed_.store(false, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_release);
  }

  /// True once cancelled or past the armed deadline. Memoizes deadline
  /// expiry into the flag so subsequent polls skip the clock read.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (!armed_.load(std::memory_order_acquire)) return false;
    const int64_t now =
        std::chrono::steady_clock::now().time_since_epoch().count();
    if (now < deadline_ns_.load(std::memory_order_relaxed)) return false;
    cancelled_.store(true, std::memory_order_release);
    return true;
  }

 private:
  /// Mutable: Expired() memoizes deadline expiry from const pollers.
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> deadline_ns_{0};
};

}  // namespace kwsdbg

#endif  // KWSDBG_COMMON_CANCELLATION_H_
