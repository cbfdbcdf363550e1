// Outside-in span recorder: the benchmark opens a span around each call it
// makes into a layer's public API. Spans stay in memory and are written as
// Chrome trace-event JSON when the run ends.
#ifndef KWSDBG_PERFBENCH_TRACE_H_
#define KWSDBG_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kwsdbg::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded span tree. A span's self time is its duration minus its
/// children's durations (children are sequential, so their sum is the time
/// they cover) minus `inner_ns`: time a callee layer spent inside the span
/// that could not be wrapped from outside, reported by that layer's own
/// counters (the executor's time inside a traversal run).
class Tracer {
 public:
  /// Opens a span as a child of the innermost open span.
  int Begin(const char* name, uint32_t request);
  void End(int span);
  /// Charges `ns` of the open span `span` to the unwrapped layer `inner`.
  void SetInner(int span, const char* inner, int64_t ns);

  /// Self milliseconds per layer name, summed over every closed span, with
  /// unwrapped inner time listed under its own layer name.
  std::map<std::string, double> SelfMillis() const;
  /// Total milliseconds of root spans named `root`.
  double RootMillis(const char* root) const;

  /// Writes at most `max_events` spans as Chrome trace-event JSON.
  bool WriteChromeJson(const std::string& path, size_t max_events) const;

 private:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;
    int64_t inner_ns = 0;
    uint32_t request = 0;
    int32_t parent = -1;
  };

  std::vector<Span> spans_;
  std::vector<const char*> inner_names_;  ///< Parallel to spans_.
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t request)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void SetInner(const char* inner, int64_t ns) {
    if (tracer_ != nullptr) tracer_->SetInner(span_, inner, ns);
  }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace kwsdbg::perfbench

#endif  // KWSDBG_PERFBENCH_TRACE_H_
