"""Spans around calls into recplug's layers, and the per-layer probes.

The tracer measures each layer from outside: it replaces every public
function of a layer module, wherever a recplug module holds a reference to
it, with a wrapper that records a span.  Calls between layers therefore
nest, and a layer's self time is its spans' durations minus the part their
child spans cover.  Nothing under ``src/`` is edited; ``uninstall`` puts the
original functions back.  Spans live in memory and are written out once at
the end of the run.

Closures recplug captured before ``install`` keep calling the originals, so
the traced run builds its pipelines again after installing.

The probes time single layer functions untraced, on fixed-size inputs made
from the run's seed, and report medians per call.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter_ns
from types import FunctionType

import workloads
from workloads import LAYERS

SPAN_FIELDS = ("layer", "name", "start_ns", "end_ns", "parent", "record")
SPAN_CAP = 100_000  # spans kept per pass; later calls are still counted
PASSES = 3  # timed passes over the inputs of each codec probe


class Tracer:
    """In-memory spans and per-layer counters: calls, self time, errors."""

    def __init__(self, rp):
        self.rp = rp
        self.error_cls = rp.errors.Error
        self.stats = {layer: [0, 0, 0] for layer in LAYERS}  # calls, self ns, errors
        self.spans: list = []
        self.stack: list = []  # one [child ns, span index] per open span
        self.record = -1  # the item being processed; spans of one item share it
        self.last_error = None
        self._undo: list = []

    def wrap(self, layer: str, name: str, fn):
        stats, spans, stack = self.stats[layer], self.spans, self.stack
        error_cls, tracer = self.error_cls, self

        def traced(*args, **kwargs):
            idx = len(spans)
            if idx < SPAN_CAP:
                spans.append(None)
            else:
                idx = -1
            frame = [0, idx]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except error_cls as exc:
                if exc is not tracer.last_error:  # count an error once, where it arose
                    tracer.last_error = exc
                    stats[2] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                duration = t1 - t0
                stats[0] += 1
                stats[1] += duration - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if idx >= 0:
                    spans[idx] = (layer, name, t0, t1, parent, tracer.record)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self.rp, layer)
            for name, value in vars(module).items():
                if (
                    isinstance(value, FunctionType)
                    and not name.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(layer, name, value)
        modules = [m for n, m in sys.modules.items() if n == "recplug" or n.startswith("recplug.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(module, name, wrappers[value])
                    self._undo.append((module, name, value))

    def uninstall(self) -> None:
        for module, name, value in reversed(self._undo):
            setattr(module, name, value)
        self._undo.clear()

    def reset(self) -> None:
        for counters in self.stats.values():
            counters[:] = [0, 0, 0]
        self.spans.clear()
        self.stack.clear()
        self.last_error = None

    def snapshot(self) -> dict:
        return {layer: (c, ns / 1e9, e) for layer, (c, ns, e) in self.stats.items()}


def write_trace(path, workload: str, seed: int, spans: list, layers: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "span_fields": SPAN_FIELDS,
        "spans": [s for s in spans if s is not None],
        "layers": {k: dict(zip(("calls", "self_s", "errors"), v)) for k, v in layers.items()},
    }
    path.write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# Probes


def per_call(fn, reps: int, batch: int = 1) -> float:
    """Median ns per call of fn() over reps timed batches of batch calls."""
    samples = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        for _ in range(batch):
            fn()
        samples.append((perf_counter_ns() - t0) / batch)
    return statistics.median(samples)


def paired(fns, reps: int) -> list:
    """ns of one call of each fn, rep by rep: [[fn0 ns, fn1 ns, ...], ...].

    Alternating the calls lets a ratio taken within one rep see the same
    host conditions on both sides.
    """
    rows = []
    for _ in range(reps):
        row = []
        for fn in fns:
            t0 = perf_counter_ns()
            fn()
            row.append(perf_counter_ns() - t0)
        rows.append(row)
    return rows


def median_ratio(rows, num: int, den: int) -> float:
    return statistics.median(r[num] / r[den] for r in rows)


def each_call(fn, args_list):
    """Median ns over one timed call per argument tuple; also the outputs."""
    samples, outputs = [], []
    for p in range(PASSES):
        for args in args_list:
            t0 = perf_counter_ns()
            out = fn(*args)
            samples.append(perf_counter_ns() - t0)
            if p == 0:
                outputs.append(out)
    return statistics.median(samples), outputs


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def codec_probes(rp, seed: int, scale: float, checks: Checks) -> dict:
    codecs = rp.codecs
    schema = {t: rp.records.schema_for(t) for t in workloads.FIELDS}
    items = workloads.CodecRoundtrip(min(scale, 0.1)).generate(seed)
    good = [it for it in items if it[0] == "ok"]
    bad = [it for it in items if it[0] == "bad"]

    from_named, records = each_call(codecs.from_named, [(it[2], schema[it[1]]) for it in good])
    pairs = [(r, schema[it[1]]) for r, it in zip(records, good)]
    to_named, texts = each_call(codecs.to_named, pairs)
    encode, images = each_call(codecs.encode_binary, pairs)
    decode, decoded = each_call(codecs.decode_binary, [(im, schema[it[1]]) for im, it in zip(images, good)])
    streams = [(codecs.lexemes(it[3][1]), schema[it[1]]) for it in good]
    parse, parsed = each_call(codecs.parse_record, streams)
    for it, text, image, r1, r2, r3 in zip(good, texts, images, records, decoded, parsed):
        checks.expect(text == it[3][2] and image == it[3][0] and r1 == r2 == r3)

    error_cls = rp.errors.Error
    reject_ns = []
    for it in bad * 3:
        _, exc, ns = workloads.run_timed(workloads.CodecRoundtrip.reject, rp, schema[it[1]], it[2], it[3])
        reject_ns.append(ns)
        checks.expect(isinstance(exc, error_cls))
    return {
        "codecs.from_named_us": (from_named / 1e3, "us"),
        "codecs.to_named_us": (to_named / 1e3, "us"),
        "codecs.encode_binary_us": (encode / 1e3, "us"),
        "codecs.decode_binary_us": (decode / 1e3, "us"),
        "codecs.parse_record_us": (parse / 1e3, "us"),
        "codecs.reject_us": (statistics.median(reject_ns) / 1e3, "us"),
    }


def step_probes(rp) -> dict:
    """One fold step, builder step and destructure on the sample device."""
    chop, scott, records = rp.chop, rp.scott, rp.records
    device = records.EXAMPLE_DEVICE
    schema = records.schema_for("device")
    empty, full = records.Builder(schema), records.Builder(schema, (False, 19, 1))
    state1 = (0, (1, ()))
    state2 = (0, (1, ()), (2, ()))
    cps1 = scott.cons_cps(0, lambda k: k(1))
    step, step2 = (lambda s, a: a), (lambda s, a, c: c)
    out = (lambda *args: args)
    reps, batch = 200, 100
    return {
        "chop.chop_ns": (per_call(lambda: chop.chop(state1, step), reps, batch), "ns"),
        "chop.chop2_ns": (per_call(lambda: chop.chop2(state2, step2), reps, batch), "ns"),
        "scott.chop_cps_ns": (per_call(lambda: scott.chop_cps(cps1, step)(out), reps, batch), "ns"),
        "records.apply_field_ns": (
            per_call(lambda: records.apply_field(empty, False), reps, batch),
            "ns",
        ),
        "records.finish_ns": (per_call(lambda: records.finish(full), reps, batch), "ns"),
        "records.destruct_ns": (per_call(lambda: schema.destruct(device), reps, batch), "ns"),
    }


def wide_probes(rp, seed: int, checks: Checks) -> dict:
    """Arity-256 costs, and the 128 -> 256 doubling ratios of both tracks."""
    pipelines, scott, plug, records = rp.pipelines, rp.scott, rp.plug, rp.records
    rng = random.Random(seed)
    reps = 30
    runs = []
    for arity in (128, 256):
        built = workloads.build_wide(rp, workloads.wide_class(arity))
        schema = built["schema"]
        values = workloads.rand_wide_values(rng, arity)
        record = schema.ctor(*values)
        expected = tuple(f(v) for f, v in zip(workloads.wide_funcs(workloads.WIDE_MAP, arity), values))
        mapped = pipelines.run_map(built["map"](record))
        mapped_cps = scott.run_map_cps(built["map_cps"](record))
        checks.expect(dataclasses.astuple(mapped) == dataclasses.astuple(mapped_cps) == expected)
        runs += [
            lambda built=built, record=record: pipelines.run_map(built["map"](record)),
            lambda built=built, record=record: scott.run_map_cps(built["map_cps"](record)),
        ]
    # runs: pairs 128, CPS 128, pairs 256, CPS 256
    run_ns = paired(runs, reps)
    maps = workloads.wide_funcs(workloads.WIDE_MAP, 256)

    def fill():
        b = records.Builder(schema)
        for v in values:
            b = records.apply_field(b, v)
        return records.finish(b)

    plug_ns = []
    for _ in range(10):
        instance = plug.mapper(schema.type_id, schema.destruct)
        for f in maps:
            t0 = perf_counter_ns()
            instance = plug.plug(instance, f)
            plug_ns.append(perf_counter_ns() - t0)
    checks.expect(fill() == record)
    return {
        "records.builder_fill_us": (per_call(fill, reps) / 1e3, "us"),
        "pipelines.build_us": (per_call(lambda: workloads.build_map(rp, schema, maps), reps) / 1e3, "us"),
        "scott.build_us": (
            per_call(lambda: workloads.build_map_cps(rp, schema, built["destruct_cps"], maps), reps) / 1e3,
            "us",
        ),
        "pipelines.run_us": (statistics.median(r[2] for r in run_ns) / 1e3, "us"),
        "scott.run_us": (statistics.median(r[3] for r in run_ns) / 1e3, "us"),
        "plug.plug_us": (statistics.median(plug_ns) / 1e3, "us"),
        "plug.run_instance_us": (per_call(lambda: plug.run_instance(instance, record), reps) / 1e3, "us"),
        "pipelines.arity_doubling_ratio": (median_ratio(run_ns, 2, 0), "ratio"),
        "scott.arity_doubling_ratio": (median_ratio(run_ns, 3, 1), "ratio"),
    }


def average_probes(rp, seed: int, scale: float, checks: Checks) -> dict:
    rng = random.Random(seed)
    n = max(100, int(10_000 * scale))
    rows = [workloads.rand_avg_values(rng) for _ in range(n)]
    benchmark = rp.records.Benchmark
    outputs = [benchmark(r["firstApp"], r["firstLog"], r["secondApp"], r["secondLog"]) for r in rows]
    avg_schema = rp.records.schema_for("benchmark_avg")
    average = rp.pipelines.average
    times = paired([lambda: average(outputs[: n // 2]), lambda: average(outputs)], 3)
    checks.expect(rp.codecs.to_named(average(outputs), avg_schema) == workloads.ref_average(rows))
    return {
        "pipelines.average_s": (statistics.median(r[1] for r in times) / 1e9, "s"),
        "pipelines.average_doubling_ratio": (median_ratio(times, 1, 0), "ratio"),
    }


def cli_probes(rp, seed: int, checks: Checks) -> dict:
    rng = random.Random(seed)
    calls = [item for _ in range(3) for item in workloads.cli_rotation(rng)]
    main_ns = []
    saved_stdin = sys.stdin
    try:
        for argv, stdin, expected in calls:
            sys.stdin, stdout = io.StringIO(stdin), io.StringIO()
            with redirect_stdout(stdout):
                t0 = perf_counter_ns()
                code = rp.cli.main(list(argv))
                main_ns.append(perf_counter_ns() - t0)
            checks.expect(code == 0 and stdout.getvalue() == expected)
    finally:
        sys.stdin = saved_stdin

    env = workloads.cli_env()
    timer = "import time; t = time.perf_counter(); import recplug.cli; print(time.perf_counter() - t)"
    import_s, interp_ns = [], []
    for _ in range(5):
        done = subprocess.run([sys.executable, "-c", timer], capture_output=True, env=env, timeout=60)
        checks.expect(done.returncode == 0)
        import_s.append(float(done.stdout or "nan"))
        t0 = perf_counter_ns()
        done = subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=env, timeout=60)
        interp_ns.append(perf_counter_ns() - t0)
        checks.expect(done.returncode == 0)
    return {
        "cli.main_us": (statistics.median(main_ns) / 1e3, "us"),
        "cli.import_ms": (statistics.median(import_s) * 1e3, "ms"),
        "cli.interp_ms": (statistics.median(interp_ns) / 1e6, "ms"),
    }


def run_probes(rp, seed: int, scale: float, checks: Checks) -> dict:
    metrics = {}
    metrics.update(codec_probes(rp, seed, scale, checks))
    metrics.update(step_probes(rp))
    metrics.update(wide_probes(rp, seed, checks))
    metrics.update(average_probes(rp, seed, scale, checks))
    metrics.update(cli_probes(rp, seed, checks))
    return metrics
