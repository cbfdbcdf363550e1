// Repo benchmark program: runs one workload in one process, checks its
// outputs, and prints its metrics by name with their units. The last line
// of standard output is the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
//   kwsdbg_perfbench --workload paper|served|spilled [--seed N]
//                    [--seconds S] [--trace 0|1] [--scratch DIR]
//                    [--trace-out PATH] [--revision STR]
//
// --trace 0 reports set-up time and peak memory, and prints the window's
// raw timings on a "# samples" line; perfbench/run.py, the entry point
// named in BENCHMARK.json, builds this program, runs it in several
// processes and computes the end-to-end metrics from their pooled samples.
// --trace 1 is the separate traced run that reports the per-layer metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace kwsdbg::perfbench {
namespace {

#ifndef KWSDBG_PERFBENCH_BUILD_TYPE
#define KWSDBG_PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HostJson(const std::string& revision) {
#ifdef NDEBUG
  const char* ndebug = "true";
#else
  const char* ndebug = "false";
#endif
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + JsonString(CpuModel()) +
         ",\"build_type\":" + JsonString(KWSDBG_PERFBENCH_BUILD_TYPE) +
         ",\"ndebug\":" + ndebug + ",\"revision\":" + JsonString(revision) +
         "}";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper|served|spilled [--seed N] "
               "[--seconds S] [--trace 0|1] [--scratch DIR] "
               "[--trace-out PATH] [--revision STR]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace kwsdbg::perfbench

int main(int argc, char** argv) {
  using namespace kwsdbg::perfbench;
  Args args;
  args.start_ns = NowNs();
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (!has_value) {
      return Usage(argv[0]);
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--scratch") {
      args.scratch_dir = argv[++i];
    } else if (flag == "--trace-out") {
      args.trace_out = argv[++i];
    } else if (flag == "--revision") {
      revision = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.seconds <= 0) return Usage(argv[0]);

  Outcome out;
  kwsdbg::Status status;
  if (args.workload == "paper" || args.workload == "spilled") {
    status = RunPaperWorkload(args, args.workload == "spilled", &out);
  } else if (args.workload == "served") {
    status = RunServedWorkload(args, &out);
  } else {
    return Usage(argv[0]);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  std::string provenance = "{\"workload\":" + JsonString(args.workload) +
                           ",\"trace\":" + (args.trace ? "1" : "0") +
                           ",\"host\":" + HostJson(revision);
  for (const auto& [key, value] : out.provenance) {
    provenance += ",\"" + key + "\":" + value;
  }
  std::printf("# provenance %s}\n", provenance.c_str());
  if (!out.samples.empty()) std::printf("# samples %s\n", out.samples.c_str());

  const bool correct = out.failed == 0;
  std::string metrics;
  for (const Metric& m : out.metrics) {
    // JSON has no infinity: a non-finite value (a failed request's
    // latency) is written as null, and such a run is already incorrect.
    char value[64] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
