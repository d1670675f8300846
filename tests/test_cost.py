"""Each layer's cost is affine in its size: fields for a record layer,
records for average, lines for main.  A profiler counts the calls of one
run at sizes 48, 96 and 192, and the three counts must lie on one line.
Calls are counted exactly, so no timing noise blurs the check.  Only
affinity is checked: the counts per unit differ between Python versions."""

import gc
import sys
from functools import reduce

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
    """The call and c_call events of run(), counted on a second call, so
    that every staged codec and pipeline already exists.  The cyclic
    collector is off while it counts: a collection may call finalizers and
    weakref callbacks of objects that the run did not make."""
    run()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return count


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


def assert_affine(counts):
    (small, mid, large), (n0, n1, n2) = counts, SIZES
    assert (mid - small) * (n2 - n1) == (large - mid) * (n1 - n0), dict(zip(SIZES, counts))


@pytest.mark.parametrize("layer", RECORD_LAYERS)
def test_a_record_layer_costs_affine_calls_in_its_arity(layer):
    counts = []
    for n in SIZES:
        with registered_wide(n) as schema:
            counts.append(calls(record_layers(schema)[layer]))
    assert_affine(counts)


@pytest.mark.parametrize("layer", sorted(STREAM_LAYERS))
def test_a_stream_layer_costs_affine_calls_in_its_length(layer):
    assert_affine([calls(STREAM_LAYERS[layer](n)) for n in SIZES])
