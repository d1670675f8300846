"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines.
All comparisons are exact, floats included.
"""

import io
import itertools
import random
import subprocess
from contextlib import contextmanager

import pytest

from recplug import codecs, pipelines, plug, scott
from recplug.chop import chop2, chop2_left, nest2, unnest2
from recplug.errors import ArityError, ExhaustedError, OpenPortsError
from recplug.records import (
    EXAMPLE_DEVICE,
    I64_MAX,
    I64_MIN,
    Benchmark,
    Device,
    destructure_benchmark,
    destructure_device,
    schema_for,
)

from support import (
    DEVICE_PIECES, FIXTURES, GOLDEN_CASES, GOLDENS, MAPPED_DEVICE, ZIP_PIECES,
    field_list, random_benchmark, random_device, recplug_child, run_main, utf8_stdin,
)

DEVICE = schema_for("device")
BENCHMARK = schema_for("benchmark")
AVGS = schema_for("benchmark_avg")


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_fixed_oracles():
    with criterion(1, "fixed oracles (map, zip, remap, show, average)"):
        assert pipelines.run_map(pipelines.map_device_demo()(EXAMPLE_DEVICE)) == MAPPED_DEVICE
        assert pipelines.run_zip(
            pipelines.zip_device_demo()(EXAMPLE_DEVICE, MAPPED_DEVICE)
        ) == Device(False, 138, 202)
        assert pipelines.run_map(
            pipelines.remap_device_demo()(EXAMPLE_DEVICE)
        ) == Device(True, 1, 1)
        assert (
            pipelines.run_show(pipelines.show_record("device")(EXAMPLE_DEVICE))
            == "False 19 1"
        )
        fixture = [Benchmark(10, "a", 20, "b"), Benchmark(30, "c", 40, "d")]
        assert pipelines.average(fixture) == Benchmark(20.0, "ac", 30.0, "bd")


def _benchmark_map_tracks():
    steps = [
        lambda v: v + 1,
        lambda s: s + "!",
        lambda v: v + 1,
        lambda s: s + "!",
    ]
    by_pairs = pipelines.depure_map("benchmark", destructure_benchmark)
    by_cps = scott.depure_map_cps("benchmark", scott.cps_destructor("benchmark"))
    for f in steps:
        by_pairs = pipelines.mapa(by_pairs, f)
        by_cps = scott.mapa_cps(by_cps, f)
    return by_pairs, by_cps


def _benchmark_zip_tracks():
    by_pairs = pipelines.depure_zip(
        "benchmark", destructure_benchmark, destructure_benchmark
    )
    destruct_cps = scott.cps_destructor("benchmark")
    by_cps = scott.depure_zip_cps("benchmark", destruct_cps, destruct_cps)
    for _ in range(4):
        by_pairs = pipelines.zipa(by_pairs, lambda a, b: a + b)
        by_cps = scott.zipa_cps(by_cps, lambda a, b: a + b)
    return by_pairs, by_cps


def test_criterion_2_track_equivalence():
    with criterion(2, "pair/CPS track equivalence on 500 devices + 200 benchmark pairs"):
        rng = random.Random(1002)
        for _ in range(500):
            da, db = random_device(rng), random_device(rng)
            assert codecs.show_line(da, DEVICE, "scott") == pipelines.run_show(
                pipelines.show_record("device")(da)
            )
            assert scott.run_map_cps(
                scott.map_device_demo_cps()(da)
            ) == pipelines.run_map(pipelines.map_device_demo()(da))
            assert scott.run_zip_cps(
                scott.zip_device_demo_cps()(da, db)
            ) == pipelines.run_zip(pipelines.zip_device_demo()(da, db))
        map_pairs, map_cps = _benchmark_map_tracks()
        zip_pairs, zip_cps = _benchmark_zip_tracks()
        for _ in range(200):
            ba, bb = random_benchmark(rng), random_benchmark(rng)
            assert codecs.show_line(ba, BENCHMARK, "scott") == pipelines.run_show(
                pipelines.show_record("benchmark")(ba)
            )
            assert scott.run_map_cps(map_cps(ba)) == pipelines.run_map(map_pairs(ba))
            assert scott.run_zip_cps(zip_cps(ba, bb)) == pipelines.run_zip(
                zip_pairs(ba, bb)
            )


def test_criterion_3_round_trips():
    with criterion(3, "lexeme, binary, and named round trips on 1000+ records each"):
        rng = random.Random(1003)
        # fixed edges the seeded draws miss: the i64 extremes and empty strings
        for record, schema in (
            (Device(True, I64_MIN, I64_MAX), DEVICE),
            (Device(False, I64_MAX, I64_MIN), DEVICE),
            (Benchmark(I64_MIN, "", I64_MAX, ""), BENCHMARK),
        ):
            line = pipelines.run_show(pipelines.show_record(schema.type_id)(record))
            assert codecs.parse_record(codecs.lexemes(line), schema) == record
            assert codecs.decode_binary(codecs.encode_binary(record, schema), schema) == record
            assert codecs.from_named(codecs.to_named(record, schema), schema) == record
        for _ in range(1000):
            d = random_device(rng)
            line = pipelines.run_show(pipelines.show_record("device")(d))
            assert codecs.parse_record(codecs.lexemes(line), DEVICE) == d
        for _ in range(1000):
            d = random_device(rng, -(2**63), 2**63 - 1)
            assert codecs.decode_binary(codecs.encode_binary(d, DEVICE), DEVICE) == d
            b = random_benchmark(rng)
            assert (
                codecs.decode_binary(codecs.encode_binary(b, BENCHMARK), BENCHMARK) == b
            )
        for _ in range(1000):
            d = random_device(rng, -(2**63), 2**63 - 1)
            assert codecs.from_named(codecs.to_named(d, DEVICE), DEVICE) == d
            b = random_benchmark(rng)
            assert codecs.from_named(codecs.to_named(b, BENCHMARK), BENCHMARK) == b
        for _ in range(200):
            avgs = Benchmark(rng.uniform(-1e18, 1e18), "x", rng.uniform(-1e6, 1e6), "y")
            assert codecs.from_named(codecs.to_named(avgs, AVGS), AVGS) == avgs
        # byte-exact fixture images, both ways
        for record, schema, image in (
            (EXAMPLE_DEVICE, DEVICE, "0013000000000000000100000000000000"),
            (Device(True, 0, 0), DEVICE, "01" + "00" * 16),
            (Benchmark(10, "a", 20, "b"), BENCHMARK, "0a00000000000000010000006114000000000000000100000062"),
        ):
            assert codecs.encode_binary(record, schema).hex() == image
            assert codecs.decode_binary(bytes.fromhex(image), schema) == record


# prepend, drop, arithmetic, boolean-flavored: the fixed documented pool
STEP_POOL_2 = [
    lambda s, a, c: ((a, c), s),
    lambda s, a, c: s,
    lambda s, a, c: s + a + c,
    lambda s, a, c: s + a * c,
    lambda s, a, c: max(s, a, c),
    lambda s, a, c: s ^ a ^ c,
]


def test_criterion_4_combinator_laws():
    with criterion(4, "chop2_left == chop2 and chop2_cps == its chop-derived form"):
        # flat vs left-nested, exhaustive small states incl. empty lists
        for la, lb in itertools.product(range(5), range(5)):
            state = (
                7,
                field_list(*range(1, la + 1)),
                field_list(*range(10, 10 * (lb + 1), 10)),
            )
            for step in STEP_POOL_2:
                try:
                    expected = chop2(state, step)
                except ArityError:
                    with pytest.raises(ArityError):
                        chop2_left(nest2(state), step)
                    continue
                assert unnest2(chop2_left(nest2(state), step)) == expected

        # direct CPS chopper vs the single-chop derivation, compared pointwise
        def materialize(state):
            return state(lambda fused, *rest_b: (fused(lambda *xs: list(xs)), rest_b))

        for la, lb in itertools.product(range(1, 5), range(1, 5)):
            fields_a = list(range(1, la + 1))
            fields_b = list(range(10, 10 * (lb + 1), 10))
            for step in STEP_POOL_2:
                seed = lambda: scott.cons_cps(
                    scott.cons_cps(7, lambda k: k(*fields_a)),
                    lambda k: k(*fields_b),
                )
                assert materialize(scott.chop2_cps(seed(), step)) == materialize(
                    scott.chop2_cps_via_chop(seed(), step)
                )


def test_criterion_5_plug_coherence():
    with criterion(5, "plug chains match direct pipelines; port accounting is strict"):
        rng = random.Random(1005)

        def chain(instance, pieces):
            for piece in pieces:
                instance = plug.plug(instance, piece)
            return instance

        direct_map = pipelines.depure_map("device", destructure_device)
        direct_show = pipelines.depure_show(destructure_device)
        direct_zip = pipelines.depure_zip(
            "device", destructure_device, destructure_device
        )
        for piece in DEVICE_PIECES:
            direct_map = pipelines.mapa(direct_map, piece)
        for _ in range(3):
            direct_show = pipelines.showa(direct_show, pipelines.render_value)
        for piece in ZIP_PIECES:
            direct_zip = pipelines.zipa(direct_zip, piece)

        for _ in range(200):
            da, db = random_device(rng), random_device(rng)
            assert plug.run_instance(
                chain(plug.mapper("device", destructure_device), DEVICE_PIECES), da
            ) == pipelines.run_map(direct_map(da))
            assert plug.run_instance(
                chain(
                    plug.mapper_cps("device", scott.destructure_device_cps),
                    DEVICE_PIECES,
                ),
                da,
            ) == pipelines.run_map(direct_map(da))
            assert plug.run_instance(
                chain(plug.shower("device", destructure_device), [pipelines.render_value] * 3),
                da,
            ) == pipelines.run_show(direct_show(da))
            assert plug.run_instance(
                chain(
                    plug.zipper("device", destructure_device, destructure_device),
                    ZIP_PIECES,
                ),
                da,
                db,
            ) == pipelines.run_zip(direct_zip(da, db))

        full = chain(plug.mapper("device", destructure_device), DEVICE_PIECES)
        assert full.steps_remaining == 0
        with pytest.raises(ExhaustedError):
            plug.plug(full, lambda v: v)
        for short in range(3):
            partial = chain(
                plug.mapper("device", destructure_device), DEVICE_PIECES[:short]
            )
            assert partial.steps_remaining == 3 - short
            with pytest.raises(OpenPortsError):
                plug.run_instance(partial, EXAMPLE_DEVICE)


def test_criterion_6_identity_and_projection_laws():
    with criterion(6, "identity maps and projection zips on 200+ random records"):
        rng = random.Random(1006)
        ident = lambda v: v
        for _ in range(200):
            d = random_device(rng)
            b = random_benchmark(rng)
            p = pipelines.depure_map("device", destructure_device)
            for _ in range(3):
                p = pipelines.mapa(p, ident)
            assert pipelines.run_map(p(d)) == d
            q = pipelines.depure_map("benchmark", destructure_benchmark)
            for _ in range(4):
                q = pipelines.mapa(q, ident)
            assert pipelines.run_map(q(b)) == b

            da, db = random_device(rng), random_device(rng)
            left = pipelines.depure_zip("device", destructure_device, destructure_device)
            right = pipelines.depure_zip(
                "device", destructure_device, destructure_device
            )
            for _ in range(3):
                left = pipelines.zipa(left, lambda a, b: a)
                right = pipelines.zipa(right, lambda a, b: b)
            assert pipelines.run_zip(left(da, db)) == da
            assert pipelines.run_zip(right(da, db)) == db


def test_criterion_7_cli_goldens():
    with criterion(7, "CLI goldens byte-exact from text or byte stdin, LF or CRLF; encode-bin | decode-bin identity"):
        for golden, argv, fixture in GOLDEN_CASES:
            expected = (0, (GOLDENS / golden).read_bytes(), "")
            text = (FIXTURES / fixture).read_text() if fixture else ""
            # One '\r' before each '\n' is part of the line end.  main reads a
            # text stdin (a StringIO) or decodes the bytes under a text layer.
            for stdin_text in {text, text.replace("\n", "\r\n")}:
                for reader in (io.StringIO, utf8_stdin):
                    code, out, err = run_main(argv, reader(stdin_text))
                    assert (code, out.encode(), err) == expected, (argv, reader, stdin_text)
        for fixture, type_name in (
            ("device.json", "device"),
            ("benchmark.json", "benchmark"),
        ):
            payload = (FIXTURES / fixture).read_bytes()
            argv = ["--type", type_name]
            encoded = recplug_child(["encode-bin", *argv], payload, stdout=subprocess.PIPE, check=True)
            decoded = recplug_child(["decode-bin", *argv], encoded.stdout, stdout=subprocess.PIPE, check=True)
            assert decoded.stdout == payload
