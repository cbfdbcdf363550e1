#include "trace.h"

#include <algorithm>
#include <fstream>
#include <string_view>

namespace kwsdbg::perfbench {

int Tracer::Begin(const char* name, uint32_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  inner_names_.push_back(nullptr);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int span) {
  Span& s = spans_[span];
  s.end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
  if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
}

void Tracer::SetInner(int span, const char* inner, int64_t ns) {
  spans_[span].inner_ns = ns;
  inner_names_[span] = inner;
}

std::map<std::string, double> Tracer::SelfMillis() const {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    const int64_t self = s.end_ns - s.start_ns - s.child_ns - s.inner_ns;
    out[s.name] += static_cast<double>(self) / 1e6;
    if (inner_names_[i] != nullptr) {
      out[inner_names_[i]] += static_cast<double>(s.inner_ns) / 1e6;
    }
  }
  return out;
}

double Tracer::RootMillis(const char* root) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.end_ns != 0 && std::string_view(s.name) == root) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return total;
}

bool Tracer::WriteChromeJson(const std::string& path, size_t max_events) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const size_t n = std::min(spans_.size(), max_events);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\""
        << ",\"pid\":1,\"tid\":1,\"ts\":" << (s.start_ns - origin) / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"self_us\":"
        << (s.end_ns - s.start_ns - s.child_ns - s.inner_ns) / 1000.0;
    if (inner_names_[i] != nullptr) {
      out << ",\"" << inner_names_[i] << "_us\":" << s.inner_ns / 1000.0;
    }
    out << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace kwsdbg::perfbench
