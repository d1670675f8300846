"""Workloads of the recplug benchmark: inputs, references, set-up and record ops.

Every input is generated from the workload seed before timing starts, and
every expected output is computed here with the standard library alone
(``json``, ``struct``, ``str.join`` and plain sums), never with recplug.
Valid inputs stay inside what every version of the wire contract accepts:
no control characters, no spaces on the lexeme path, lowercase hex and
64-bit signed integers.  Malformed inputs are ones every version rejects.

A workload object has four parts:

* ``setup(rp, wrap)`` builds what its record op needs (pipelines, schemas,
  plug instances) from a freshly imported recplug ``rp``.  ``wrap`` lets the
  traced run put a span around each call of a built pipeline.
* ``generate(seed)`` returns the item stream the loop cycles through.
* ``measure(rp, state, item)`` runs one item and returns
  ``(output, exception, elapsed_ns, per_record_ns)``.
* ``check(rp, item, output, exception)`` says whether the outcome is right.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import operator
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = ("records", "chop", "pipelines", "scott", "plug", "codecs", "cli")

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

# Log text: no spaces or control characters (both break the lexeme line),
# with quotes, backslashes and non-ASCII text over-represented.
LOG_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "-_.,:;!?/()[]{}+=*&^%$#@~'"
    + '"' * 6
    + "\\" * 6
    + "éüßçλжщ中文字€😀"
)

DEVICE_FIELDS = (("block", "bool"), ("major", "int"), ("minor", "int"))
BENCHMARK_FIELDS = (
    ("firstApp", "int"),
    ("firstLog", "str"),
    ("secondApp", "int"),
    ("secondLog", "str"),
)
FIELDS = {"device": DEVICE_FIELDS, "benchmark": BENCHMARK_FIELDS}

# The CLI demos run on the fixed example device (False, 19, 1).
EXAMPLE_DEVICE = (False, 19, 1)


def layers() -> SimpleNamespace:
    """Every recplug layer module, imported if it is not yet."""
    modules = {name: importlib.import_module(f"recplug.{name}") for name in LAYERS}
    return SimpleNamespace(errors=importlib.import_module("recplug.errors"), **modules)


def import_recplug() -> SimpleNamespace:
    """Import every recplug layer afresh, so the import itself is measured."""
    for name in [m for m in sys.modules if m == "recplug" or m.startswith("recplug.")]:
        del sys.modules[name]
    return layers()


# ---------------------------------------------------------------------------
# Reference encoders (standard library only)


def ref_json(values: dict) -> str:
    return json.dumps(values, separators=(",", ":"), ensure_ascii=False)


def ref_lexeme(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    return str(value)


def ref_binary(kinds, values) -> bytes:
    out = []
    for kind, v in zip(kinds, values):
        if kind == "bool":
            out.append(b"\x01" if v else b"\x00")
        elif kind == "int":
            out.append(struct.pack("<q", v))
        else:
            raw = v.encode("utf-8")
            out.append(struct.pack("<I", len(raw)) + raw)
    return b"".join(out)


# ---------------------------------------------------------------------------
# Random values


def rand_int(rng: random.Random) -> int:
    pick = rng.random()
    if pick < 0.5:
        return rng.randint(-999, 9999)
    if pick < 0.9:
        return rng.randint(I64_MIN, I64_MAX)
    return rng.choice((I64_MIN, I64_MAX, 0, -1))


def rand_log(rng: random.Random, max_len: int = 64) -> str:
    return "".join(rng.choices(LOG_ALPHABET, k=rng.randint(0, max_len)))


def rand_values(rng: random.Random, type_id: str) -> dict:
    gen = {"bool": lambda: rng.random() < 0.5, "int": lambda: rand_int(rng), "str": lambda: rand_log(rng)}
    return {name: gen[kind]() for name, kind in FIELDS[type_id]}


def shuffled_json(rng: random.Random, values: dict) -> str:
    """A valid input line: key order is free on input."""
    items = list(values.items())
    rng.shuffle(items)
    return ref_json(dict(items))


def run_timed(fn, *args):
    """Call fn(*args) once; return (output, exception, elapsed_ns)."""
    t0 = perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # the check decides whether this was expected
        return None, exc, perf_counter_ns() - t0
    return out, None, perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# codec-roundtrip


MALFORMED_KINDS = (
    "truncated_object",
    "missing_key",
    "extra_key",
    "wrong_kind",
    "int_out_of_range",
    "bad_bool_byte",
    "truncated_binary",
    "trailing_binary",
)


def malformed_item(rng: random.Random) -> tuple:
    """One input every version of the contract rejects: (type, form, payload)."""
    kind = rng.choice(MALFORMED_KINDS)
    type_id = "device" if kind == "bad_bool_byte" else rng.choice(("device", "benchmark"))
    fields = FIELDS[type_id]
    values = rand_values(rng, type_id)
    if kind in ("bad_bool_byte", "truncated_binary", "trailing_binary"):
        image = ref_binary([k for _, k in fields], list(values.values()))
        if kind == "bad_bool_byte":
            image = bytes([rng.randint(2, 255)]) + image[1:]
        elif kind == "truncated_binary":
            image = image[: rng.randrange(len(image))]
        else:
            image += bytes(rng.randint(0, 255) for _ in range(rng.randint(1, 3)))
        return ("bad", type_id, "binary", image)
    if kind == "truncated_object":
        line = shuffled_json(rng, values)
        return ("bad", type_id, "json", line[: rng.randrange(len(line))])
    if kind == "missing_key":
        del values[rng.choice([name for name, _ in fields])]
    elif kind == "extra_key":
        values["extra"] = rand_int(rng)
    elif kind == "wrong_kind":
        name, field_kind = rng.choice(fields)
        others = {"bool": (1, "true"), "int": ("12", True), "str": (7, False)}
        values[name] = rng.choice(others[field_kind])
    else:
        name = rng.choice([n for n, k in fields if k == "int"])
        values[name] = rng.choice((I64_MAX + 1 + rng.randint(0, 10**6), I64_MIN - 1 - rng.randint(0, 10**6)))
    return ("bad", type_id, "json", shuffled_json(rng, values))


class CodecRoundtrip:
    """Narrow records decoded and re-encoded through all three wire forms."""

    name = "codec-roundtrip"

    def __init__(self, scale: float = 1.0):
        self.n_items = self.items_per_job = max(40, int(5000 * scale))
        self.trace_items = max(40, int(1000 * scale))

    def setup(self, rp, wrap=lambda module, name, fn: fn):
        schema_for = rp.records.schema_for
        return {
            t: (schema_for(t), wrap("pipelines", "run", rp.pipelines.show_record(t)))
            for t in FIELDS
        }

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        items = []
        for _ in range(self.n_items):
            if rng.random() < 0.05:
                items.append(malformed_item(rng))
                continue
            type_id = rng.choice(("device", "benchmark"))
            values = rand_values(rng, type_id)
            kinds = [k for _, k in FIELDS[type_id]]
            expected = (
                ref_binary(kinds, list(values.values())),
                " ".join(ref_lexeme(v) for v in values.values()),
                ref_json(values),
            )
            items.append(("ok", type_id, shuffled_json(rng, values), expected))
        return items

    @staticmethod
    def roundtrip(rp, state, type_id, line):
        codecs = rp.codecs
        schema, show = state[type_id]
        record = codecs.from_named(line, schema)
        image = codecs.encode_binary(record, schema)
        shown = rp.pipelines.run_show(show(codecs.decode_binary(image, schema)))
        parsed = codecs.parse_record(codecs.lexemes(shown), schema)
        return image, shown, codecs.to_named(parsed, schema)

    @staticmethod
    def reject(rp, schema, form, payload):
        if form == "json":
            return rp.codecs.from_named(payload, schema)
        return rp.codecs.decode_binary(payload, schema)

    def measure(self, rp, state, item):
        if item[0] == "ok":
            out, exc, ns = run_timed(self.roundtrip, rp, state, item[1], item[2])
        else:
            out, exc, ns = run_timed(self.reject, rp, state[item[1]][0], item[2], item[3])
        return out, exc, ns, (ns,)

    def check(self, rp, item, out, exc) -> bool:
        if item[0] == "ok":
            return exc is None and out == item[3]
        return isinstance(exc, rp.errors.Error)

    def records(self, item) -> int:
        return 1


# ---------------------------------------------------------------------------
# wide-fold


WIDE_ARITY = 256
WIDE_KINDS = ("bool", "int", "str")


def wide_class(arity: int) -> type:
    """The frozen dataclass of ``arity`` fields ``f0``, ``f1``, ... a wide record is."""
    return dataclasses.make_dataclass(f"Wide{arity}", [f"f{i}" for i in range(arity)], frozen=True)


def register_wide(rp, cls: type):
    """Register ``cls`` as a flat record type (bool, int, str fields in turn).

    This is the only place the benchmark defines a record type; it uses the
    public ``RecordSchema`` and ``REGISTRY``.  Returns the schema and the
    continuation-passing destructor the CPS track needs.
    """
    records = rp.records
    kind = {"bool": records.Kind.BOOL, "int": records.Kind.INT, "str": records.Kind.STR}
    names = [f.name for f in dataclasses.fields(cls)]
    fields_of = operator.attrgetter(*names)

    def destruct(r):
        out = ()
        for v in reversed(fields_of(r)):
            out = (v, out)
        return out

    def destruct_cps(r):
        values = fields_of(r)
        return lambda k: k(*values)

    specs = tuple(
        records.FieldSpec(n, kind[WIDE_KINDS[i % 3]]) for i, n in enumerate(names)
    )
    schema = records.RecordSchema(f"wide{len(names)}", cls, destruct, specs)
    records.REGISTRY[schema.type_id] = schema
    return schema, destruct_cps


# Field functions by kind; each keeps its value in kind and in i64 range.
WIDE_MAP = {"bool": operator.not_, "int": lambda x: x ^ 0x5A5A, "str": lambda s: s[::-1]}
WIDE_ZIP = {"bool": operator.xor, "int": operator.xor, "str": operator.add}


def wide_funcs(table: dict, arity: int) -> list:
    return [table[WIDE_KINDS[i % 3]] for i in range(arity)]


def rand_wide_values(rng: random.Random, arity: int) -> tuple:
    gen = {
        "bool": lambda: rng.random() < 0.5,
        "int": lambda: rand_int(rng),
        "str": lambda: "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(0, 8))),
    }
    return tuple(gen[WIDE_KINDS[i % 3]]() for i in range(arity))


def build_map(rp, schema, maps):
    """The pair-track map pipeline: one ``mapa`` per field function."""
    mapped = rp.pipelines.depure_map(schema.type_id, schema.destruct)
    for f in maps:
        mapped = rp.pipelines.mapa(mapped, f)
    return mapped


def build_map_cps(rp, schema, destruct_cps, maps):
    """The CPS-track map pipeline: one ``mapa_cps`` per field function."""
    mapped = rp.scott.depure_map_cps(schema.type_id, destruct_cps)
    for f in maps:
        mapped = rp.scott.mapa_cps(mapped, f)
    return mapped


def build_wide(rp, cls: type, wrap=lambda module, name, fn: fn) -> dict:
    """Every pipeline and plug instance the wide-fold op runs, built once."""
    pipelines, scott, plug = rp.pipelines, rp.scott, rp.plug
    schema, destruct_cps = register_wide(rp, cls)
    tid, arity = schema.type_id, len(schema.fields)
    maps, zips = wide_funcs(WIDE_MAP, arity), wide_funcs(WIDE_ZIP, arity)

    zipped = pipelines.depure_zip(tid, schema.destruct, schema.destruct)
    for f in zips:
        zipped = pipelines.zipa(zipped, f)
    shown_cps = scott.depure_show_cps(destruct_cps)
    for _ in range(arity):
        shown_cps = scott.showa_cps(shown_cps, pipelines.render_value)
    instance = plug.mapper(tid, schema.destruct)
    for f in maps:
        instance = plug.plug(instance, f)
    return {
        "schema": schema,
        "destruct_cps": destruct_cps,
        "show": wrap("pipelines", "run", pipelines.show_record(tid)),
        "map": wrap("pipelines", "run", build_map(rp, schema, maps)),
        "zip": wrap("pipelines", "run", zipped),
        "show_cps": wrap("scott", "run", shown_cps),
        "map_cps": wrap("scott", "run", build_map_cps(rp, schema, destruct_cps, maps)),
        "instance": instance,
    }


class WideFold:
    """256-field records through every pipeline family and a plug instance."""

    name = "wide-fold"

    def __init__(self, scale: float = 1.0):
        self.n_items = max(4, int(64 * scale))
        self.items_per_job = max(2, int(50 * scale))
        self.trace_items = max(2, int(16 * scale))
        # The record class is the benchmark's, not recplug's set-up.
        self.cls = wide_class(WIDE_ARITY)

    def setup(self, rp, wrap=lambda module, name, fn: fn):
        return build_wide(rp, self.cls, wrap)

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        values = [rand_wide_values(rng, WIDE_ARITY) for _ in range(self.n_items)]
        maps, zips = wide_funcs(WIDE_MAP, WIDE_ARITY), wide_funcs(WIDE_ZIP, WIDE_ARITY)
        records = [self.cls(*v) for v in values]
        items = []
        for i, cur in enumerate(values):
            prev = values[i - 1]
            expected = (
                " ".join(ref_lexeme(v) for v in cur),
                tuple(f(v) for f, v in zip(maps, cur)),
                tuple(f(a, b) for f, a, b in zip(zips, prev, cur)),
            )
            items.append((records[i - 1], records[i], expected))
        return items

    def op(self, rp, state, prev, cur):
        pipelines, scott = rp.pipelines, rp.scott
        return (
            pipelines.run_show(state["show"](cur)),
            pipelines.run_map(state["map"](cur)),
            pipelines.run_zip(state["zip"](prev, cur)),
            scott.run_show_cps(state["show_cps"](cur)),
            scott.run_map_cps(state["map_cps"](cur)),
            rp.plug.run_instance(state["instance"], cur),
        )

    def measure(self, rp, state, item):
        out, exc, ns = run_timed(self.op, rp, state, item[0], item[1])
        return out, exc, ns, (ns,)

    def check(self, rp, item, out, exc) -> bool:
        if exc is not None:
            return False
        shown, mapped, zipped, shown_cps, mapped_cps, plugged = out
        ref_show, ref_map, ref_zip = item[2]

        def values(record):
            return dataclasses.astuple(record) if dataclasses.is_dataclass(record) else None

        return (
            shown == shown_cps == ref_show
            and values(mapped) == values(mapped_cps) == values(plugged) == ref_map
            and values(zipped) == ref_zip
        )

    def records(self, item) -> int:
        return 1


# ---------------------------------------------------------------------------
# avg-batch


def rand_avg_values(rng: random.Random) -> dict:
    # Far from the i64 limit even when 20k of them are summed.
    return {
        "firstApp": rng.randint(0, 10**12),
        "firstLog": rand_log(rng),
        "secondApp": rng.randint(0, 10**12),
        "secondLog": rand_log(rng),
    }


def ref_average(rows: list) -> str:
    n = len(rows)
    return ref_json(
        {
            "firstApp": sum(r["firstApp"] for r in rows) / n,
            "firstLog": "".join(r["firstLog"] for r in rows),
            "secondApp": sum(r["secondApp"] for r in rows) / n,
            "secondLog": "".join(r["secondLog"] for r in rows),
        }
    )


class AvgBatch:
    """A ~10k-line averaging job: parse every line, fold, emit one record."""

    name = "avg-batch"
    items_per_job = 1

    def __init__(self, scale: float = 1.0):
        self.n_lines = max(50, int(10_000 * scale))
        self.trace_items = 1

    def setup(self, rp, wrap=lambda module, name, fn: fn):
        schema_for = rp.records.schema_for
        return (schema_for("benchmark"), schema_for("benchmark_avg"))

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        rows = [rand_avg_values(rng) for _ in range(self.n_lines)]
        lines = [shuffled_json(rng, r) for r in rows]
        return [(lines, ref_average(rows))]

    def measure(self, rp, state, item):
        schema, avg_schema = state
        from_named = rp.codecs.from_named
        per_line = []
        t0 = perf_counter_ns()
        try:
            parsed = []
            for line in item[0]:
                t = perf_counter_ns()
                parsed.append(from_named(line, schema))
                per_line.append(perf_counter_ns() - t)
            out = rp.codecs.to_named(rp.pipelines.average(parsed), avg_schema)
        except Exception as exc:  # the check decides whether this was expected
            return None, exc, perf_counter_ns() - t0, per_line
        return out, None, perf_counter_ns() - t0, per_line

    def check(self, rp, item, out, exc) -> bool:
        return exc is None and out == item[1]

    def records(self, item) -> int:
        return len(item[0])


# ---------------------------------------------------------------------------
# cli-oneshot


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def demo_outputs() -> dict:
    """The fixed demo pipelines, computed by hand on (False, 19, 1)."""
    block, major, minor = EXAMPLE_DEVICE
    mapped = (not block, major + 100, minor + 200)
    zipped = (block and mapped[0], major + mapped[1], minor + mapped[2])
    # remap: pop, push True, map id, pop, dup, map id, map id -> (True, minor, minor)
    remapped = (True, minor, minor)
    as_json = lambda v: ref_json(dict(zip(("block", "major", "minor"), v)))
    return {"map-demo": as_json(mapped), "zip-demo": as_json(zipped), "remap-demo": as_json(remapped)}


def cli_rotation(rng: random.Random) -> list:
    """All ten subcommands once, with valid input: (argv, stdin, expected stdout)."""
    demos = demo_outputs()

    def record():
        type_id = rng.choice(("device", "benchmark"))
        values = rand_values(rng, type_id)
        lexeme = " ".join(ref_lexeme(x) for x in values.values())
        image = ref_binary([k for _, k in FIELDS[type_id]], list(values.values())).hex()
        return type_id, values, ref_json(values), lexeme, image

    def encoding():
        return rng.choice(("lisp", "scott"))

    items = []
    t, v, canon, lexeme, image = record()
    items.append((("show", "--type", t, "--encoding", encoding()), shuffled_json(rng, v) + "\n", lexeme))
    t, v, canon, lexeme, image = record()
    items.append((("parse", "--type", t), lexeme + "\n", canon))
    for demo in ("map-demo", "zip-demo"):
        items.append(((demo, "--encoding", encoding()), "", demos[demo]))
    items.append((("remap-demo",), "", demos["remap-demo"]))
    rows = [rand_avg_values(rng) for _ in range(rng.randint(1, 8))]
    items.append((("avg",), "".join(shuffled_json(rng, r) + "\n" for r in rows), ref_average(rows)))
    t, v, canon, lexeme, image = record()
    items.append((("encode-bin", "--type", t), shuffled_json(rng, v) + "\n", image))
    t, v, canon, lexeme, image = record()
    items.append((("decode-bin", "--type", t), image + "\n", canon))
    for cmd in ("to-json", "from-json"):
        t, v, canon, lexeme, image = record()
        items.append(((cmd, "--type", t), shuffled_json(rng, v) + "\n", canon))
    return [(argv, stdin, out + "\n") for argv, stdin, out in items]


# ``python -m recplug`` as -m runs it (through runpy), then the child's peak
# resident memory as a last line on stderr.  VmHWM is reset at exec, so unlike
# ru_maxrss it does not include the parent's pages.
CLI_MAIN = """\
import runpy
try:
    runpy.run_module("recplug", run_name="__main__", alter_sys=True)
finally:
    import sys
    sys.stderr.write([l for l in open("/proc/self/status") if l.startswith("VmHWM:")][0])
"""
PEAK_LINE = re.compile(rb"VmHWM:\s+(\d+) kB\n")


def spawn_cli(argv, stdin: str, env: dict):
    return subprocess.run(
        [sys.executable, "-c", CLI_MAIN, *argv],
        input=stdin.encode("utf-8"),
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=60,
    )


class CliOneshot:
    """One ``python -m recplug <cmd>`` child per record, one at a time."""

    name = "cli-oneshot"
    items_per_job = 10

    def __init__(self, scale: float = 1.0):
        self.rotations = 3
        self.trace_items = 10
        self.env = cli_env()
        self.peak_kb = 0  # the largest peak resident memory of any child

    def setup(self, rp, wrap=lambda module, name, fn: fn):
        return wrap("cli", "spawn", spawn_cli)

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        return [item for _ in range(self.rotations) for item in cli_rotation(rng)]

    def measure(self, rp, state, item):
        out, exc, ns = run_timed(state, item[0], item[1], self.env)
        peak = exc is None and PEAK_LINE.fullmatch(out.stderr)
        if peak:
            self.peak_kb = max(self.peak_kb, int(peak[1]))
        return out, exc, ns, (ns,)

    def check(self, rp, item, out, exc) -> bool:
        return (
            exc is None
            and out.returncode == 0
            and out.stdout.decode("utf-8") == item[2]
            and PEAK_LINE.fullmatch(out.stderr) is not None
        )

    def records(self, item) -> int:
        return 1


WORKLOADS = {w.name: w for w in (CodecRoundtrip, WideFold, AvgBatch, CliOneshot)}
