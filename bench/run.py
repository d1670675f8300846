"""Run one workload of the recplug benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload codec-roundtrip --seed 1 --seconds 20 --trace 0

Every metric is printed as ``<name> <value> <unit>``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics (the JSON line holds those in ``GATED``); ``--trace 1``
measures the per-layer metrics (see README.md in this directory).  The recplug sources are read from ``src/``;
without them the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

from workloads import LAYERS, ROOT, SRC, WORKLOADS, import_recplug

COLD_STARTS = 15
# The end-to-end metrics in the result line; the others are printed only.
# On a shared host the machine runs at two speeds about 1.5x apart, and a
# run can sit in either.  Medians and tail percentiles snap to one speed or
# the other, so across ten runs they spread wider than any useful bound.
# Means blend the two and stay within it.
GATED = ("records_per_s", "setup_s", "peak_rss_mb")
TRACE_DIR = ROOT / "bench" / "out"


def nearest_rank(values: list, q: float):
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, math.ceil(q * len(ranked)) - 1)]


class Job:
    """A fixed run of consecutive items: timings, record count, failures."""

    def __init__(self):
        self.ns = 0
        self.record_ns: list = []
        self.records = 0
        self.failed = 0


def run_job(wl, rp, state, items, first: int, count: int, tracer=None) -> Job:
    """Run count items from index first on, cycling through items."""
    job = Job()
    for i in range(first, first + count):
        item = items[i % len(items)]
        if tracer is not None:
            tracer.record = i
        out, exc, ns, per_record = wl.measure(rp, state, item)
        job.ns += ns
        job.record_ns.extend(per_record)
        n = wl.records(item)
        job.records += n
        if not wl.check(rp, item, out, exc):
            job.failed += n
    return job


# A fresh interpreter times the first import of every recplug layer before it
# imports anything else, so recplug's own standard-library imports are paid
# inside the timer.  Only then does it load the workload, which builds its own
# objects (such as the wide record class) untimed, and time the set-up.
COLD_START = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import {modules}
imported = time.perf_counter() - t0
sys.path.insert(0, {bench!r})
import workloads
wl = workloads.WORKLOADS[{workload!r}]()
rp = workloads.layers()
t0 = time.perf_counter()
wl.setup(rp)
print(imported + time.perf_counter() - t0)
"""


def cold_start(workload: str) -> tuple:
    """A fresh interpreter imports recplug and sets the workload up.

    Returns the child's wall time in ns and the set-up time it measured
    itself, in seconds.
    """
    modules = ", ".join(f"recplug.{name}" for name in ("errors", *LAYERS))
    script = COLD_START.format(src=str(SRC), modules=modules, bench=str(ROOT / "bench"), workload=workload)
    t0 = perf_counter_ns()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, cwd=ROOT, timeout=60)
    elapsed = perf_counter_ns() - t0
    if done.returncode != 0:
        raise RuntimeError(f"cold start failed: {done.stderr.decode(errors='replace')}")
    return elapsed, float(done.stdout)


def end_to_end(wl, seed: int, seconds: float) -> dict:
    # Only the generated inputs are moved out of the collector's reach; what
    # recplug builds in set-up and in the loop stays in it.
    items = wl.generate(seed)
    gc.freeze()
    rp = import_recplug()
    state = wl.setup(rp)
    run_job(wl, rp, state, items, 0, wl.items_per_job)  # warm caches and bytecode

    # Set-up is timed inside fresh interpreters (cold starts), so each import
    # is a first one and no module copies pile up in this process.  They are
    # spread over the run, between jobs, so their medians sample the same
    # host conditions as the jobs do.
    jobs, starts = [], []
    start = perf_counter()
    while not jobs or perf_counter() < start + seconds:
        jobs.append(run_job(wl, rp, state, items, len(jobs) * wl.items_per_job, wl.items_per_job))
        due = min(1.0, (perf_counter() - start) / seconds)
        while len(starts) < due * COLD_STARTS:
            starts.append(cold_start(wl.name))
    while len(starts) < COLD_STARTS:
        starts.append(cold_start(wl.name))
    gc.unfreeze()

    if wl.name == "cli-oneshot":  # every record is its own process
        spawn_ns = [ns for j in jobs for ns in j.record_ns]
        peak_kb = wl.peak_kb
    else:
        spawn_ns = [ns for ns, _ in starts]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = [ns for job in jobs for ns in job.record_ns]
    records = sum(j.records for j in jobs)
    metrics = {
        "records_per_s": (records / (sum(j.ns for j in jobs) / 1e9), "1/s"),
        "latency_us_p50": (nearest_rank(lat, 0.50) / 1e3, "us"),
        "latency_us_p99": (nearest_rank(lat, 0.99) / 1e3, "us"),
        "job_s_p50": (statistics.median(j.ns for j in jobs) / 1e9, "s"),
        "spawn_ms_p50": (statistics.median(spawn_ns) / 1e6, "ms"),
        "setup_s": (statistics.median(s for _, s in starts), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return {"attempted": records, "failed": sum(j.failed for j in jobs), "metrics": metrics}


def per_layer(wl, seed: int, seconds: float, scale: float = 1.0) -> dict:
    import tracing

    rp = import_recplug()
    state = wl.setup(rp)
    items = wl.generate(seed)
    run_job(wl, rp, state, items, 0, wl.items_per_job)
    n = wl.trace_items

    # Half the time untraced, half traced, over the same fixed pass of items,
    # so counts repeat exactly and the two rates compare like for like.
    untraced, traced, layer_runs = [], [], []
    half = perf_counter() + seconds / 2
    while not untraced or perf_counter() < half:
        untraced.append(run_job(wl, rp, state, items, 0, n))
    tracer = tracing.Tracer(rp)
    tracer.install()
    try:
        traced_state = wl.setup(rp, tracer.wrap)
        end = perf_counter() + seconds / 2
        while not traced or perf_counter() < end:
            tracer.reset()
            traced.append(run_job(wl, rp, traced_state, items, 0, n, tracer))
            layer_runs.append(tracer.snapshot())
            if len(traced) == 1:
                spans = list(tracer.spans)
    finally:
        tracer.uninstall()
    tracing.write_trace(TRACE_DIR / f"trace-{wl.name}-seed{seed}.json", wl.name, seed, spans, layer_runs[0])

    checks = tracing.Checks()
    metrics = tracing.run_probes(rp, seed, scale, checks)
    for layer, (calls, _, errors) in layer_runs[0].items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (statistics.median(r[layer][1] for r in layer_runs), "s")
        metrics[f"{layer}.errors"] = (errors, "count")
    pass_ns = lambda jobs: statistics.median(j.ns for j in jobs)
    metrics["trace.overhead_ratio"] = (pass_ns(traced) / pass_ns(untraced), "ratio")
    jobs = untraced + traced
    return {
        "attempted": sum(j.records for j in jobs) + checks.attempted,
        "failed": sum(j.failed for j in jobs) + checks.failed,
        "metrics": metrics,
    }


def measure(wl, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    """Run one workload: the result line's fields, plus every metric under ``shown``."""
    result = per_layer(wl, seed, seconds, scale) if trace else end_to_end(wl, seed, seconds)
    shown = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": shown if trace else {k: shown[k] for k in GATED},
        "shown": shown,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recplug" / "__init__.py").is_file():
        print(f"error: no recplug sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()
    result = measure(wl, args.seed, args.seconds, args.trace)
    for name, m in result.pop("shown").items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_ratio {result['failed'] / result['attempted']} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
