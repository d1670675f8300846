"""Tiny-size self-test of the benchmark.

Runs every workload for one second at a small input size, untraced and
traced, and checks that each metric named in BENCHMARK.json is emitted with
a finite value, that every output was correct and that failed_ratio is 0.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys

import run
from workloads import ROOT, SRC, WORKLOADS

# Every end-to-end metric the benchmark prints besides failed_ratio; BENCHMARK.json gates
# the subset in run.GATED and the rest are printed.
END_TO_END = (
    "records_per_s",
    "latency_us_p50",
    "latency_us_p99",
    "job_s_p50",
    "spawn_ms_p50",
    "setup_s",
    "peak_rss_mb",
)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    sys.path.insert(0, str(SRC))
    problems = []
    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            result = run.measure(cls(scale=0.02), seed=7, seconds=1, trace=trace, scale=0.02)
            metrics = result["metrics"]
            failed_ratio = result["failed"] / result["attempted"]
            where = f"{name} --trace {trace}"
            if sorted(metrics) != sorted(names[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names[trace]))}")
            bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{where}: non-finite values: {bad}")
            if trace == 0:
                shown = result["shown"]
                if sorted(shown) != sorted(END_TO_END):
                    problems.append(f"{where}: printed metrics differ: {sorted(set(shown) ^ set(END_TO_END))}")
                zero = [k for k, m in shown.items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{where}: end-to-end metrics not above 0: {zero}")
            if not result["correct"] or failed_ratio != 0:
                problems.append(f"{where}: failed_ratio {failed_ratio}")
            print(f"{where}: {len(metrics)} metrics, failed_ratio {failed_ratio}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
