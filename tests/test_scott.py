import dataclasses
import itertools
import random
from functools import partial, reduce

import pytest

from recplug import plug
from recplug.codecs import show_line
from recplug.errors import ArityError, ContinuationShapeError, UnknownTypeError
from recplug.pipelines import (
    depure_map,
    depure_show,
    depure_zip,
    mapa,
    render_value,
    map_device_demo,
    run_map,
    run_show,
    run_zip,
    show_record,
    showa,
    zip_device_demo,
    zipa,
)
from recplug.records import (
    EXAMPLE_DEVICE,
    Benchmark,
    Builder,
    Device,
    apply_field,
    destructure_device,
    finish,
    schema_for,
)
from recplug.scott import (
    chop2_cps,
    chop2_cps_via_chop,
    chop3_cps,
    chop_cps,
    cons_cps,
    cps_destructor,
    depure_map_cps,
    depure_show_cps,
    depure_zip3_cps,
    depure_zip_cps,
    destructure_device_cps,
    map_device_demo_cps,
    mapa_cps,
    run_map_cps,
    run_show_cps,
    run_zip3_cps,
    run_zip_cps,
    showa_cps,
    zip_device_demo_cps,
    zipa3_cps,
    zipa_cps,
)

from support import (
    WIDE_MAPS,
    WIDE_ZIPS,
    destructure_wide_cps,
    random_benchmark,
    random_device,
    random_wide,
    registered_wide,
)

MAPPED_DEVICE = Device(True, 119, 201)


def cps_of(*fields):
    """A synthetic CPS value feeding the given fields to its continuation."""
    return lambda k: k(*fields)


def collect(*args):
    return list(args)


def test_destructure_device_cps():
    v = destructure_device_cps(EXAMPLE_DEVICE)
    assert v(collect) == [False, 19, 1]
    rebuilt = v(
        lambda b, x, y: finish(
            apply_field(
                apply_field(apply_field(Builder(schema_for("device")), b), x), y
            )
        )
    )
    assert rebuilt == EXAMPLE_DEVICE
    assert v(lambda b, x, y: x + y) == 20


def test_destructure_benchmark_cps():
    bench = Benchmark(10, "a", 20, "b")
    v = cps_destructor("benchmark")(bench)
    assert v(collect) == [10, "a", 20, "b"]
    assert v(lambda a, b, c, d: b + d) == "ab"
    builder = Builder(schema_for("benchmark"))
    rebuilt = v(
        lambda *fields: finish(
            __import__("functools").reduce(apply_field, fields, builder)
        )
    )
    assert rebuilt == bench


def test_cons_cps_examples():
    assert cons_cps(5, cps_of(7))(lambda s, i: s + i) == 12
    assert cons_cps([], destructure_device_cps(EXAMPLE_DEVICE))(collect) == [
        [],
        False,
        19,
        1,
    ]


def test_cons_cps_defining_law():
    rng = random.Random(3)
    for _ in range(50):
        s = rng.randint(-99, 99)
        fields = [rng.randint(-99, 99) for _ in range(rng.choice([1, 2]))]
        v = cps_of(*fields)
        assert cons_cps(s, v)(collect) == v(partial(collect, s))


def test_chop_cps_defining_example():
    state = cons_cps(5, cps_of(7))
    assert chop_cps(state, lambda s, a: s + a)(lambda t: t) == 12


def test_depure_show_cps_seed_shape():
    state = depure_show_cps(destructure_device_cps)(EXAMPLE_DEVICE)
    assert state(collect) == [(), False, 19, 1]


def test_showa_cps_single_field():
    p = depure_show_cps(lambda r: cps_of(42))
    p = showa_cps(p, str)
    assert p(None)(lambda stack: stack) == ("42", ())


def test_show_device_cps_matches_pair_track():
    assert show_line(EXAMPLE_DEVICE, schema_for("device"), "scott") == "False 19 1"
    assert show_line(EXAMPLE_DEVICE, schema_for("device"), "scott") == run_show(
        show_record("device")(EXAMPLE_DEVICE)
    )


def test_map_device_cps():
    assert run_map_cps(map_device_demo_cps()(EXAMPLE_DEVICE)) == MAPPED_DEVICE


def test_mapa_cps_identity_law():
    rng = random.Random(11)
    for _ in range(25):
        d = random_device(rng)
        p = depure_map_cps("device", destructure_device_cps)
        for _ in range(3):
            p = mapa_cps(p, lambda v: v)
        assert run_map_cps(p(d)) == d


def test_mapa_cps_too_many_steps():
    p = map_device_demo_cps()
    p = mapa_cps(p, lambda v: v)  # fourth step on a three-field record
    with pytest.raises(ContinuationShapeError):
        run_map_cps(p(EXAMPLE_DEVICE))


def test_depure_cps_unknown_type():
    with pytest.raises(UnknownTypeError):
        depure_map_cps("gadget", destructure_device_cps)
    with pytest.raises(UnknownTypeError):
        depure_zip_cps("gadget", destructure_device_cps, destructure_device_cps)


def test_zip_device_cps():
    assert run_zip_cps(
        zip_device_demo_cps()(EXAMPLE_DEVICE, MAPPED_DEVICE)
    ) == Device(False, 138, 202)


def test_zipa_cps_projection_law():
    rng = random.Random(5)
    for _ in range(25):
        da, db = random_device(rng), random_device(rng)
        p = depure_zip_cps("device", destructure_device_cps, destructure_device_cps)
        for _ in range(3):
            p = zipa_cps(p, lambda a, b: a)
        assert run_zip_cps(p(da, db)) == da


def materialize2(state):
    """Flatten a two-record CPS state into comparable plain data."""

    def outer(fused, *rest_b):
        return (fused(lambda *xs: list(xs)), list(rest_b))

    return state(outer)


def test_chop2_cps_equals_chop_derived_form():
    # Exhaustive small states x the step pool, compared pointwise.  The
    # prepend step is order-sensitive, so swapped field arguments would show.
    pool = [
        ("prepend", lambda s, a, c: ((a, c), s)),
        ("drop", lambda s, a, c: s),
        ("sum", lambda s, a, c: s + a + c),
        ("mul-add", lambda s, a, c: s + a * c),
        ("max", lambda s, a, c: max(s, a, c)),
    ]
    for la, lb in itertools.product(range(1, 5), range(1, 5)):
        fields_a = list(range(1, la + 1))
        fields_b = list(range(10, 10 * (lb + 1), 10))
        for _, step in pool:
            seed = lambda: cons_cps(cons_cps(7, cps_of(*fields_a)), cps_of(*fields_b))
            direct = materialize2(chop2_cps(seed(), step))
            derived = materialize2(chop2_cps_via_chop(seed(), step))
            assert direct == derived


def test_chop2_cps_matches_pair_track_on_full_pipelines():
    rng = random.Random(17)
    for chopper in (chop2_cps, chop2_cps_via_chop):
        for _ in range(25):
            da, db = random_device(rng), random_device(rng)
            state = depure_zip_cps(
                "device", destructure_device_cps, destructure_device_cps
            )(da, db)
            steps = [
                lambda s, a, b: apply_field(s, a and b),
                lambda s, a, b: apply_field(s, a + b),
                lambda s, a, b: apply_field(s, a + b),
            ]
            for step in steps:
                state = chopper(state, step)
            pair_state = depure_zip("device", destructure_device, destructure_device)
            pair_state = zipa(pair_state, lambda a, b: a and b)
            pair_state = zipa(pair_state, lambda a, b: a + b)
            pair_state = zipa(pair_state, lambda a, b: a + b)
            assert run_zip_cps(state) == run_zip(pair_state(da, db))


def test_chop3_cps_three_way_zip():
    rng = random.Random(23)
    for _ in range(25):
        d1, d2, d3 = (random_device(rng) for _ in range(3))
        p = depure_zip3_cps(
            "device",
            destructure_device_cps,
            destructure_device_cps,
            destructure_device_cps,
        )
        p = zipa3_cps(p, lambda a, b, c: a or b or c)
        p = zipa3_cps(p, lambda a, b, c: a + b + c)
        p = zipa3_cps(p, lambda a, b, c: a + b + c)
        expected = Device(
            d1.block or d2.block or d3.block,
            d1.major + d2.major + d3.major,
            d1.minor + d2.minor + d3.minor,
        )
        assert run_zip3_cps(p(d1, d2, d3)) == expected


def test_chop3_cps_projections():
    # Each projection pins the argument order: record 1 -> a, 2 -> b, 3 -> c.
    d1, d2, d3 = Device(True, 1, 2), Device(False, 3, 4), Device(True, 5, 6)
    projections = [
        (lambda s, a, b, c: apply_field(s, a), d1),
        (lambda s, a, b, c: apply_field(s, b), d2),
        (lambda s, a, b, c: apply_field(s, c), d3),
    ]
    for step, expected in projections:
        state = depure_zip3_cps(
            "device",
            destructure_device_cps,
            destructure_device_cps,
            destructure_device_cps,
        )(d1, d2, d3)
        for _ in range(3):
            state = chop3_cps(state, step)
        assert run_zip3_cps(state) == expected


def test_zipa_cps_argument_order():
    a, b = Device(False, 10, 20), Device(True, 1, 2)
    p = depure_zip_cps("device", destructure_device_cps, destructure_device_cps)
    p = zipa_cps(p, lambda x, y: x or y)
    p = zipa_cps(p, lambda x, y: x - y)
    p = zipa_cps(p, lambda x, y: x - y)
    assert run_zip_cps(p(a, b)) == Device(True, 9, 18)


def test_wrong_nesting_order_is_a_shape_error():
    # Right-nesting makes the first record unreachable; choppers refuse it.
    right_nested = cons_cps(
        Builder(schema_for("device")),
        cons_cps(
            destructure_device_cps(EXAMPLE_DEVICE),
            destructure_device_cps(MAPPED_DEVICE),
        ),
    )
    with pytest.raises(ContinuationShapeError):
        chop2_cps(right_nested, lambda s, a, b: s)(lambda *a: a)


def test_run_show_cps_empty_stack():
    state = cons_cps((), lambda k: k())
    assert run_show_cps(state) == ""


def test_both_show_tracks_refuse_a_pipeline_that_leaves_fields():
    """Two show steps on the three-field device: neither track prints 'False 19'."""
    pair = reduce(showa, [render_value] * 2, depure_show(destructure_device))
    cps = reduce(showa_cps, [render_value] * 2, depure_show_cps(destructure_device_cps))
    with pytest.raises(ArityError) as info:
        run_show(pair(EXAMPLE_DEVICE))
    assert (info.value.op, info.value.remaining) == ("run_show", 1)
    assert str(info.value) == "run_show: unconsumed fields left"
    with pytest.raises(ContinuationShapeError):
        run_show_cps(cps(EXAMPLE_DEVICE))


def cps_accumulator(levels):
    """The accumulator a left-nested CPS state of ``levels`` records holds."""

    def read(state):
        for _ in range(levels):
            state = state(lambda acc, *fields: acc)
        return state

    return read


@pytest.mark.parametrize(
    "seed,wrap,run,records,accumulator",
    [
        (depure_map("device", destructure_device), mapa, run_map, 1, lambda s: s[0]),
        (depure_zip("device", *[destructure_device] * 2), zipa, run_zip, 2, lambda s: s[0]),
        (depure_map_cps("device", destructure_device_cps), mapa_cps, run_map_cps, 1, cps_accumulator(1)),
        (depure_zip_cps("device", *[destructure_device_cps] * 2), zipa_cps, run_zip_cps, 2, cps_accumulator(2)),
        (depure_zip3_cps("device", *[destructure_device_cps] * 3), zipa3_cps, run_zip3_cps, 3, cps_accumulator(3)),
    ],
    ids=["map", "zip", "map_cps", "zip_cps", "zip3_cps"],
)
def test_a_seed_shares_one_empty_builder_across_runs(seed, wrap, run, records, accumulator):
    empty = accumulator(seed(*[EXAMPLE_DEVICE] * records))
    assert empty == Builder(schema_for("device"))
    assert accumulator(seed(*[MAPPED_DEVICE] * records)) is empty
    first = reduce(wrap, [lambda a, *others: a] * 3, seed)
    for d in (EXAMPLE_DEVICE, MAPPED_DEVICE):
        assert run(first(*[d] * records)) == d
    assert empty.supplied == ()
    assert accumulator(seed(*[EXAMPLE_DEVICE] * records)) is empty


def test_track_equivalence_on_random_devices():
    rng = random.Random(31)
    for _ in range(50):
        d = random_device(rng)
        assert show_line(d, schema_for("device"), "scott") == run_show(
            show_record("device")(d)
        )
        assert run_map_cps(map_device_demo_cps()(d)) == run_map(map_device_demo()(d))
    for _ in range(25):
        da, db = random_device(rng), random_device(rng)
        assert run_zip_cps(zip_device_demo_cps()(da, db)) == run_zip(
            zip_device_demo()(da, db)
        )


def test_track_equivalence_on_random_benchmarks():
    rng = random.Random(37)
    for _ in range(25):
        b = random_benchmark(rng)
        assert show_line(b, schema_for("benchmark"), "scott") == run_show(
            show_record("benchmark")(b)
        )


@pytest.mark.parametrize("arity", [1000, 5000])
def test_cps_pipelines_at_depth(arity):
    # Far past the Python recursion limit: every CPS run is one flat loop.
    with registered_wide(arity) as schema:
        tid, d = schema.type_id, destructure_wide_cps
        rng = random.Random(arity)
        a, b = random_wide(rng, schema), random_wide(rng, schema)
        va, vb = dataclasses.astuple(a), dataclasses.astuple(b)
        kinds = [f.kind for f in schema.fields]
        shown, mapped = depure_show_cps(d), depure_map_cps(tid, d)
        zipped, zipped3 = depure_zip_cps(tid, d, d), depure_zip3_cps(tid, d, d, d)
        instance = plug.mapper_cps(tid, d)
        for k in kinds:
            shown = showa_cps(shown, render_value)
            mapped = mapa_cps(mapped, WIDE_MAPS[k])
            zipped = zipa_cps(zipped, WIDE_ZIPS[k])
            zipped3 = zipa3_cps(zipped3, lambda x, y, z, f=WIDE_ZIPS[k]: f(f(x, y), z))
            instance = plug.plug(instance, WIDE_MAPS[k])

        assert run_show_cps(shown(a)) == " ".join(render_value(v) for v in va)
        expected = tuple(WIDE_MAPS[k](v) for k, v in zip(kinds, va))
        assert dataclasses.astuple(run_map_cps(mapped(a))) == expected
        assert dataclasses.astuple(plug.run_instance(instance, a)) == expected
        expected = tuple(WIDE_ZIPS[k](x, y) for k, x, y in zip(kinds, va, vb))
        assert dataclasses.astuple(run_zip_cps(zipped(a, b))) == expected
        expected = tuple(
            WIDE_ZIPS[k](WIDE_ZIPS[k](x, y), z) for k, x, y, z in zip(kinds, vb, va, vb)
        )
        assert dataclasses.astuple(run_zip3_cps(zipped3(b, a, b))) == expected


def test_a_run_of_a_state_that_yields_two_values_is_a_shape_error():
    state = cons_cps(Builder(schema_for("device")), lambda k: k(True))
    with pytest.raises(ContinuationShapeError) as info:
        run_map_cps(state)
    assert (info.value.expected, info.value.actual) == (1, 2)
    assert str(info.value) == "run: continuation got 2 value(s), expected the accumulator alone"
