#!/usr/bin/env python3
"""Entry point of the repo benchmark: builds it and runs one workload.

    python3 perfbench/run.py --workload paper|served|spilled \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths are resolved against the repository root. The
benchmark program is built from source into .bench_build/perfbench on first use (a
Release build of every file under src/ plus perfbench/*.cc). Every line of
standard output but the last is human-readable detail; the last line is
the result object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. The window is split over
PROCESSES program processes run one after another, each of which sets up
from scratch and times --seconds / PROCESSES seconds with its own
workload seed derived from --seed. The latency and throughput metrics are
computed from the requests of all of them pooled, each timed at the
fastest latency of its work class (see floor_metrics), and setup_s and
peak_rss_mib are medians over them, so one process whose memory layout or
placement happens to be fast or slow moves the result less. --trace 1 is
the separate traced run, one process for the whole window: it reports the
per-layer metrics and writes a Chrome trace-event file under
.bench_build/traces/.

Exits non-zero, without a result line, if the build or a run fails, and
with a result line marked incorrect if any output check failed.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "kwsdbg_perfbench"
WORKLOADS = ("paper", "served", "spilled")
PROCESSES = 3  # timed processes per --trace 0 run
RUN_BUDGET_S = 175  # every program process of one run, build excluded
SAMPLES_PREFIX = "# samples "


def clean_env():
    """The environment minus the library's own KWSDBG_* knobs, which would
    change what is measured (memory budgets, page sizes, spill dirs)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("KWSDBG_")}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=clean_env())
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, env=clean_env())


def revision():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                           "--dirty"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_program(argv, echo, deadline=None):
    """Runs the benchmark program; returns its result object and its samples
    (None if it printed none), or (None, None) if it failed. The program is
    killed if it is still running at `deadline`."""
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run([str(BINARY)] + argv, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, env=clean_env())
    lines = proc.stdout.splitlines()
    if not lines:
        return None, None
    samples = None
    for line in lines[:-1]:
        if line.startswith(SAMPLES_PREFIX):
            samples = json.loads(line[len(SAMPLES_PREFIX):])
        elif echo:
            print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, None
    if proc.returncode != 0 and result.get("correct", False):
        return None, None
    return result, samples


def percentile(values, q):
    """Nearest-rank percentile; a failed request (None) counts as infinite,
    so it misses every limit."""
    ordered = sorted(math.inf if v is None else v for v in values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def requests_of(workload, samples):
    """Every timed request of the run as (work class, measured latency in ms
    or None if it failed). A class holds the requests that do the same
    work: on `paper` and `spilled` one (strategy, query) pair, whose counts
    repeat exactly from pass to pass; on `served` one hot query of one
    process with one number of SQL queries issued (0 when the verdict cache
    answered every node)."""
    out = []
    for proc, s in enumerate(samples):
        if workload == "served":
            out += [((proc, q, n), lat) for q, n, lat in
                    zip(s["query"], s["sql"], s["latency_ms"])]
        else:
            out += [(t, lat) for t, lats in enumerate(s["by_type_ms"])
                    for lat in lats]
    return out


def floor_metrics(requests, clients):
    """Latency and throughput at each work class's floor. A shared host
    slows every request for spells of seconds to minutes; a request's
    fastest repeat is its cost with the least interference, so each request
    is timed at the fastest latency of its class in the run (a failed
    request stays infinite). p50 and p95 are taken over all requests, and
    throughput is what the closed loop's clients complete per second at
    those latencies (clients / mean latency)."""
    floor = {}
    for cls, latency in requests:
        if latency is not None:
            floor[cls] = min(latency, floor.get(cls, math.inf))
    timed = [None if latency is None else floor[cls]
             for cls, latency in requests]
    p95 = percentile(timed, 0.95)
    beyond = sum(1 for _, v in requests if v is None or v > p95)
    mean_ms = statistics.fmean(math.inf if v is None else v for v in timed)
    print("# %d requests in %d work classes; %d measured latencies lie "
          "beyond the p95%s" %
          (len(requests), len(floor), beyond,
           " (fewer than 10: p95 is not supported)" if beyond < 10 else ""))
    return {
        "latency_p50_ms": percentile(timed, 0.5),
        "latency_p95_ms": p95,
        "throughput_qps": clients * 1000.0 / mean_ms,
    }


def window_note(workload, samples, requests, clients):
    """The same figures from the raw measurements, for the reader: they
    move with the host and are not reported as metrics. The rate counts
    every request completed in the windows."""
    if workload == "served":
        completed = sum(s["completed"] for s in samples)
        seconds = sum(s["window_s"] for s in samples)
    else:
        completed = len(requests)
        seconds = sum(sum(s["pass_s"]) for s in samples)
    latencies = [v for _, v in requests]
    print("# as measured over the window (not gated): p50 %.4f ms, p95 "
          "%.4f ms, %.1f requests/s over %.3f s at %d client(s)" %
          (percentile(latencies, 0.5), percentile(latencies, 0.95),
           completed / seconds, seconds, clients))


def pool(workload, results, samples):
    """One result from the processes of a run."""
    requests = requests_of(workload, samples)
    clients = samples[0]["clients"]
    window_note(workload, samples, requests, clients)
    if workload == "served":
        writes = sum((s["write_ms"] for s in samples), [])
        print("# %d writes, p50 %.4f ms" %
              (len(writes), percentile(writes, 0.5) if writes else 0))
    metrics = floor_metrics(requests, clients)
    units = {"latency_p50_ms": "ms", "latency_p95_ms": "ms",
             "throughput_qps": "1/s"}
    out = {name: {"value": value if math.isfinite(value) else None,
                  "unit": units[name]} for name, value in metrics.items()}
    for name in ("setup_s", "peak_rss_mib"):
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {"value": statistics.median(values),
                     "unit": results[0]["metrics"][name]["unit"]}
        print("# %s per process: %s" %
              (name, ", ".join("%.4f" % v for v in values)))
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": out}


def check_writes_bite(samples, result):
    """`served`: the output check can only catch a stale verdict if the
    writes changed some hot query's classification, so a run in which none
    changed counts a failed operation."""
    changed = sum(s["changed"] for s in samples)
    print("# writes changed %d hot-query classification(s)" % changed)
    result["attempted"] += 1
    if changed == 0:
        result["failed"] += 1
        result["correct"] = False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = BUILD_ROOT / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--scratch", str(scratch),
              "--revision", revision()]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        runs = [["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", "1", "--trace-out",
                 str(traces / f"{args.workload}-seed{args.seed}.json")]]
    else:
        runs = [["--seed", str(args.seed * PROCESSES + k), "--seconds",
                 str(args.seconds / PROCESSES), "--trace", "0"]
                for k in range(PROCESSES)]
    results, samples = [], []
    try:
        for argv in runs:
            result, sample = run_program(common + argv, echo=True,
                                         deadline=deadline)
            if result is None:
                return 1
            results.append(result)
            if sample is not None:
                samples.append(sample)
    except subprocess.TimeoutExpired:
        print("benchmark program timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # Pooling needs every process's samples; served's write check needs
    # them in traced runs too.
    if ((not args.trace or args.workload == "served") and
            len(samples) != len(results)):
        return 1
    result = results[0] if args.trace else pool(args.workload, results, samples)
    if args.workload == "served":
        check_writes_bite(samples, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
