#!/usr/bin/env python3
"""The benchmark's own test: counts repeat exactly on one-client workloads.

    python3 perfbench/test_counts.py

Runs the traced `paper` and `spilled` workloads twice each with the same
seed and window, and fails unless the per-request work counts are
identical in both runs. A later change can then state a gain as a count
(SQL issued, rows probed, pages read) rather than a time. A second seed
must also pass the output check, so the runs use a seed other than the
default.
"""
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's entry point: build, run_program)

EXACT_COUNTS = (
    "traversal.sql_queries",
    "sql.rows_probed",
    "sql.rows_filtered",
    "storage.page_hits",
    "storage.page_reads",
    "text.posting_reads",
)
SEED = 7
SECONDS = 1


def traced_counts(workload, scratch):
    result, _ = run.run_program(
        ["--workload", workload, "--seed", str(SEED), "--seconds",
         str(SECONDS), "--trace", "1", "--scratch", scratch], echo=False)
    if result is None or not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed: {result}")
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


def main():
    run.build()
    failures = 0
    with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as scratch:
        for workload in ("paper", "spilled"):
            first = traced_counts(workload, scratch)
            second = traced_counts(workload, scratch)
            for name in EXACT_COUNTS:
                same = first[name] == second[name]
                failures += not same
                print(f"{'ok  ' if same else 'FAIL'} {workload:8s} {name:24s}"
                      f" {first[name]!r} vs {second[name]!r}")
            if workload == "spilled" and first["storage.page_reads"] == 0:
                failures += 1
                print("FAIL spilled   read no page from disk")
    print("counts repeat exactly" if failures == 0 else
          f"{failures} count(s) differ between identical runs")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.CalledProcessError) as err:
        print(err, file=sys.stderr)
        sys.exit(1)
