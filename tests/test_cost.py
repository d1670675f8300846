"""Each layer's cost is affine in its size: fields for a record layer,
records for average, lines for main.  A profiler counts the calls, and a
tracer the opcodes, of one run at sizes 48, 96 and 192, and each count's
three values must lie on one line.  Both are counted exactly, so no timing noise blurs
the check.  The counts per unit and per run differ between Python versions,
so ``PINNED`` holds them for CPython 3.11.7 alone, and on any other
interpreter only affinity is checked.  ``python tests/test_cost.py`` prints
the table in ``PINNED``'s form, so an intended cost change is one paste."""

import gc
import sys
from functools import cache, reduce

import pytest

from recplug import plug
from recplug.codecs import decode_binary, encode_binary, from_named, lexemes, parse_record, show_line, to_named
from recplug.pipelines import average, depure_map, depure_zip, mapa, run_map, run_zip, zipa
from recplug.records import Benchmark, Kind
from recplug.scott import (
    cps_destructor, depure_map_cps, depure_zip_cps, mapa_cps, run_map_cps, run_zip_cps, zipa_cps
)

from support import WIDE_MAPS, WIDE_ZIPS, registered_wide, run_main

# Multiples of 3, so that each of registered_wide's three kinds recurs equally.
SIZES = (48, 96, 192)
# One value per kind, so that every field of a kind costs the same.
SAMPLE = {Kind.BOOL: True, Kind.INT: -7, Kind.STR: 'a"é'}


def calls(run):
    """(calls, opcodes): the call and c_call events and the opcode events
    of run(), counted on a second call, so that every staged codec and
    pipeline already exists.  The cyclic collector is off while it counts:
    a collection may call finalizers and weakref callbacks of objects that
    the run did not make."""
    run()
    counts = [0, 0]

    def profile(frame, event, arg):
        counts[0] += event in ("call", "c_call")

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        counts[1] += event == "opcode"
        return trace

    profiler, tracer, collecting = sys.getprofile(), sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(tracer)
        sys.setprofile(profiler)
        if collecting:
            gc.enable()
    return tuple(counts)


RECORD_LAYERS = (
    "run_map", "run_zip", "run_map_cps", "run_zip_cps", "show_line lisp", "show_line scott",
    "to_named", "from_named", "encode_binary", "decode_binary", "parse_record", "plug build",
    "run_instance",
)


def record_layers(schema):
    """Each record layer's run, staged for one record of schema."""
    tid, d, kinds = schema.type_id, schema.destruct, [f.kind for f in schema.fields]
    d_cps = cps_destructor(tid)
    rec = schema.ctor(*(SAMPLE[k] for k in kinds))
    maps, zips = [WIDE_MAPS[k] for k in kinds], [WIDE_ZIPS[k] for k in kinds]
    mapped = reduce(mapa, maps, depure_map(tid, d))
    zipped = reduce(zipa, zips, depure_zip(tid, d, d))
    mapped_cps = reduce(mapa_cps, maps, depure_map_cps(tid, d_cps))
    zipped_cps = reduce(zipa_cps, zips, depure_zip_cps(tid, d_cps, d_cps))
    text, image = to_named(rec, schema), encode_binary(rec, schema)
    stream = lexemes(show_line(rec, schema, "lisp"))
    instance = reduce(plug.plug, maps, plug.mapper(tid, d))
    return {
        "run_map": lambda: run_map(mapped(rec)),
        "run_zip": lambda: run_zip(zipped(rec, rec)),
        "run_map_cps": lambda: run_map_cps(mapped_cps(rec)),
        "run_zip_cps": lambda: run_zip_cps(zipped_cps(rec, rec)),
        "show_line lisp": lambda: show_line(rec, schema, "lisp"),
        "show_line scott": lambda: show_line(rec, schema, "scott"),
        "to_named": lambda: to_named(rec, schema),
        "from_named": lambda: from_named(text, schema),
        "encode_binary": lambda: encode_binary(rec, schema),
        "decode_binary": lambda: decode_binary(image, schema),
        "parse_record": lambda: parse_record(stream, schema),
        "plug build": lambda: reduce(plug.plug, maps, plug.mapper(tid, d)),
        "run_instance": lambda: plug.run_instance(instance, rec),
    }


BENCHMARK_LINE = '{"firstApp":10,"firstLog":"a","secondApp":20,"secondLog":"b"}\n'
DEVICE_LINE = '{"block":false,"major":19,"minor":1}\n'
# Layers whose unit is a record or a line: size -> run.
STREAM_LAYERS = {
    "average": lambda n: lambda: average([Benchmark(10, "a", 20, "b")] * n),
    "main to-json": lambda n: lambda: run_main(["to-json", "--type", "device"], DEVICE_LINE * n),
    "main avg": lambda n: lambda: run_main(["avg"], BENCHMARK_LINE * n),
}


#: Each layer's (opcodes, calls) per unit, then per run, on CPython 3.11.7;
#: main's per-run counts are argparse start-up, so they are not pinned.
PINNED = {
    "run_map":         (134.00, 6.00, 101.00, 15.00),
    "run_zip":         (154.33, 6.00, 114.00, 16.00),
    "run_map_cps":     (193.00, 9.00, 239.00, 27.00),
    "run_zip_cps":     (312.33, 16.00, 410.00, 43.00),
    "show_line lisp":  (114.33, 5.33, 109.00, 17.00),
    "show_line scott": (173.33, 8.33, 247.00, 29.00),
    "to_named":        (105.67, 5.67, 105.00, 16.00),
    "from_named":      (103.67, 4.67, 102.00, 11.00),
    "encode_binary":   (111.00, 7.33, 101.00, 16.00),
    "decode_binary":   (147.33, 7.33, 101.00, 14.00),
    "parse_record":    (150.33, 8.00, 104.00, 14.00),
    "plug build":      (84.00, 7.00, 86.00, 14.00),
    "run_instance":    (134.00, 6.00, 113.00, 16.00),
    "average":         (734.00, 39.00, 1026.00, 75.00),
    "main avg":        (1305.00, 75.00, None, None),
    "main to-json":    (905.00, 58.00, None, None),
}


@cache
def counted(layer):
    """The (calls, opcodes) counts of one run of ``layer`` at each of SIZES."""
    if layer in STREAM_LAYERS:
        return tuple(calls(STREAM_LAYERS[layer](n)) for n in SIZES)
    counts = []
    for n in SIZES:
        with registered_wide(n) as schema:
            counts.append(calls(record_layers(schema)[layer]))
    return tuple(counts)


def cost(layer):
    """``layer``'s (opcodes, calls) per unit, then per run, to two places,
    from its counts at the smallest and the largest size."""
    (c0, o0), _, (c2, o2) = counted(layer)
    co, oo = (c2 - c0) / (SIZES[-1] - SIZES[0]), (o2 - o0) / (SIZES[-1] - SIZES[0])
    row = tuple(round(v, 2) for v in (oo, co, o0 - oo * SIZES[0], c0 - co * SIZES[0]))
    return row[:2] + (None, None) if layer.startswith("main ") else row


def assert_affine(counts):
    """Each of the (calls, opcodes) counts at SIZES lies on one line."""
    (n0, n1, n2) = SIZES
    for small, mid, large in zip(*counts):
        assert (mid - small) * (n2 - n1) == (large - mid) * (n1 - n0), dict(zip(SIZES, counts))


@pytest.mark.parametrize("layer", RECORD_LAYERS)
def test_a_record_layer_costs_affine_calls_in_its_arity(layer):
    assert_affine(counted(layer))


@pytest.mark.parametrize("layer", sorted(STREAM_LAYERS))
def test_a_stream_layer_costs_affine_calls_in_its_length(layer):
    assert_affine(counted(layer))


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:3] != (3, 11, 7),
                    reason="costs are pinned on CPython 3.11.7")
def test_each_layer_costs_its_pinned_opcodes_and_calls():
    assert {layer: cost(layer) for layer in PINNED} == PINNED


if __name__ == "__main__":
    print("PINNED = {")
    for layer in (*RECORD_LAYERS, *sorted(STREAM_LAYERS)):
        row = ", ".join("None" if v is None else f"{v:.2f}" for v in cost(layer))
        key = f'"{layer}":'
        print(f"    {key:18} ({row}),")
    print("}")
