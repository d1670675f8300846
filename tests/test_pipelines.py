import random
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recplug.errors import (
    ArityError,
    EmptyInputError,
    FieldTypeError,
    IntOverflowError,
    UnknownTypeError,
)
from recplug import pipelines
from recplug.chop import Pipeline
from recplug.pipelines import (
    average,
    depure_map,
    depure_show,
    depure_zip,
    dup,
    identity,
    map_device_demo,
    mapa,
    pop,
    push,
    render_value,
    run_map,
    run_show,
    run_zip,
    show_record,
    showa,
    zipa,
)
from recplug.records import (
    EXAMPLE_DEVICE,
    I64_MAX,
    Benchmark,
    Builder,
    Device,
    destructure_benchmark,
    destructure_device,
    schema_for,
)

from support import MAPPED_DEVICE, field_list, random_benchmark


def average_oracle(outputs):
    """Direct summation, independent of the pipeline machinery."""
    n = len(outputs)
    return Benchmark(
        sum(b.first_app for b in outputs) / n,
        "".join(b.first_log for b in outputs),
        sum(b.second_app for b in outputs) / n,
        "".join(b.second_log for b in outputs),
    )


def test_render_value():
    assert render_value(True) == "True"
    assert render_value(False) == "False"
    assert render_value(-19) == "-19"
    assert render_value("x") == "x"
    assert render_value(20.0) == "20.0"


def test_depure_show():
    assert depure_show(destructure_device)(EXAMPLE_DEVICE) == (
        (),
        (False, (19, (1, ()))),
    )
    assert depure_show(destructure_device)(Device(True, 0, 0)) == ((), (True, (0, (0, ()))))


def test_showa_single_field():
    p = depure_show(lambda r: field_list(42))
    p = showa(p, render_value)
    assert p(None) == (("42", ()), ())


def test_show_too_many_steps():
    p = show_record("device")
    p = showa(p, render_value)  # fourth step on a three-field record
    with pytest.raises(ArityError):
        p(EXAMPLE_DEVICE)


def test_run_show():
    assert run_show((("1", ("19", ("False", ()))), ())) == "False 19 1"
    assert run_show(((), ())) == ""
    assert run_show((("x", ()), ())) == "x"


def test_depure_map():
    acc, rest = depure_map("device", destructure_device)(EXAMPLE_DEVICE)
    assert acc == Builder(schema_for("device"))
    assert rest == (False, (19, (1, ())))
    with pytest.raises(UnknownTypeError):
        depure_map("gadget", destructure_device)


@given(st.builds(Device, st.booleans(), st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)))
def test_identity_map_law(d):
    p = depure_map("device", destructure_device)
    for _ in range(3):
        p = mapa(p, identity)
    assert run_map(p(d)) == d


def test_identity_map_law_every_registered_type():
    samples = {
        "device": EXAMPLE_DEVICE,
        "benchmark": Benchmark(10, "a", 20, "b"),
        "benchmark_avg": Benchmark(1.5, "a", -2.25, "b"),
        "benchmark_argv": Benchmark("run --fast", "a", "run --slow", "b"),
    }
    for type_id, record in samples.items():
        schema = schema_for(type_id)
        p = depure_map(type_id, schema.destruct)
        for _ in range(schema.arity):
            p = mapa(p, identity)
        assert run_map(p(record)) == record


def test_mapa_kind_mismatch():
    p = depure_map("device", destructure_device)
    p = mapa(p, lambda a: a + 100)  # int transform hits the bool field
    with pytest.raises(FieldTypeError):
        p(EXAMPLE_DEVICE)


def test_run_map_rejects_incomplete_and_leftover():
    with pytest.raises(ArityError):
        run_map((Builder(schema_for("device"), (False, 19)), ()))
    for leftover, remaining in ((field_list(9), 1), (field_list(9, 8), 2)):
        with pytest.raises(ArityError) as info:
            run_map((Builder(schema_for("device"), (True, 119, 201)), leftover))
        assert (info.value.op, info.value.remaining) == ("run_map", remaining)
    assert run_map((Builder(schema_for("device"), (True, 119, 201)), ())) == MAPPED_DEVICE


def test_step_count_law():
    state = map_device_demo()(EXAMPLE_DEVICE)
    assert state[1] == ()


def test_depure_zip():
    acc, ra, rb = depure_zip("device", destructure_device, destructure_device)(
        EXAMPLE_DEVICE, MAPPED_DEVICE
    )
    assert acc == Builder(schema_for("device"))
    assert ra == (False, (19, (1, ())))
    assert rb == (True, (119, (201, ())))


def test_depure_zip_unknown_type():
    with pytest.raises(UnknownTypeError):
        depure_zip("gadget", destructure_device, destructure_device)


def test_run_zip_rejects_incomplete_builder():
    state = (Builder(schema_for("device"), (True,)), (), ())
    with pytest.raises(ArityError):
        run_zip(state)


def test_depure_zip_mismatched_arity_fails_late():
    p = depure_zip("device", destructure_device, destructure_benchmark)
    state = p(EXAMPLE_DEVICE, Benchmark(1, "a", 2, "b"))  # permitted at seed time
    p = zipa(p, lambda a, b: a and True)
    p = zipa(p, lambda a, b: a)
    p = zipa(p, lambda a, b: a)
    with pytest.raises(ArityError):
        run_zip(p(EXAMPLE_DEVICE, Benchmark(1, "a", 2, "b")))


def test_zipa_second_rest_exhausted():
    p = depure_zip("device", destructure_device, lambda r: field_list(True))
    p = zipa(p, lambda a, b: a and b)
    p = zipa(p, lambda a, b: a + b)
    with pytest.raises(ArityError):
        p(EXAMPLE_DEVICE, EXAMPLE_DEVICE)


def test_run_zip_rejects_leftover():
    """Leftovers in the first list, the second or both: ``remaining`` is their total."""
    full = Builder(schema_for("device"), (True, 119, 201))
    cases = [(field_list(1), (), 1), ((), field_list(3), 1), (field_list(1), field_list(2, 3), 3)]
    for rest_a, rest_b, remaining in cases:
        with pytest.raises(ArityError) as info:
            run_zip((full, rest_a, rest_b))
        assert (info.value.op, info.value.remaining) == ("run_zip", remaining)
        assert str(info.value) == "run_zip: unconsumed fields left"


def test_pop_push_dup_steps():
    seed = depure_map("device", destructure_device)
    assert pop(seed)(EXAMPLE_DEVICE)[1] == (19, (1, ()))
    assert push(pop(seed), True)(EXAMPLE_DEVICE)[1] == (True, (19, (1, ())))
    assert pop(push(seed, 5))(EXAMPLE_DEVICE) == seed(EXAMPLE_DEVICE)

    single = depure_show(lambda r: field_list(1))
    assert dup(single)(None)[1] == (1, (1, ()))

    onto_nil = push(depure_show(lambda r: ()), 5)
    assert onto_nil(None)[1] == (5, ())

    empty = depure_show(lambda r: ())
    with pytest.raises(ArityError, match=r"^chop: 0 field\(s\) remaining$") as info:
        pop(empty)(None)  # pop is one chop step
    assert (info.value.op, info.value.remaining) == ("chop", 0)
    with pytest.raises(ArityError):
        dup(empty)(None)


def test_average_fixture():
    outputs = [Benchmark(10, "a", 20, "b"), Benchmark(30, "c", 40, "d")]
    expected = Benchmark(20.0, "ac", 30.0, "bd")
    assert average_oracle(outputs) == expected
    assert average(outputs) == expected


def test_average_single_element():
    assert average([Benchmark(6, "x", 8, "y")]) == Benchmark(6.0, "x", 8.0, "y")


def test_average_empty():
    with pytest.raises(EmptyInputError):
        average([])


def test_average_matches_oracle_on_random_lists():
    rng = random.Random(42)
    for _ in range(50):
        outputs = [random_benchmark(rng) for _ in range(rng.randint(1, 50))]
        assert average(outputs) == average_oracle(outputs)


def test_average_overflow_aborts():
    for outputs in (
        [Benchmark(I64_MAX, "a", 0, "b"), Benchmark(1, "c", 0, "d")],
        [Benchmark(0, "a", I64_MAX, "b"), Benchmark(0, "c", 1, "d")],
    ):
        with pytest.raises(IntOverflowError):
            average(outputs)


def test_average_builds_its_append_fold_once():
    """The append fold depends on the benchmark schema alone, so importing
    ``pipelines`` builds it and no ``average`` call builds it again."""
    outputs = [Benchmark(10, "a", 20, "b"), Benchmark(30, "c", 40, "d")]
    with patch.object(pipelines, "zipa", wraps=zipa) as wrapped_zipa, patch.object(
        pipelines, "depure_zip", wraps=depure_zip
    ) as wrapped_seed:
        assert average(outputs) == average(outputs) == Benchmark(20.0, "ac", 30.0, "bd")
    assert wrapped_zipa.call_count == wrapped_seed.call_count == 0


def test_pipelines_are_pure():
    p = map_device_demo()
    assert p(EXAMPLE_DEVICE) == p(EXAMPLE_DEVICE)


# The nested-closure readers that Pipeline replaced, kept as the reference.
def nested_hom_wrap(chopper, pipeline, step):
    return lambda r: chopper(pipeline(r), step)


def nested_hom_wrap0(chopper, pipeline):
    return lambda r: chopper(pipeline(r))


field_values = st.one_of(st.booleans(), st.integers(-3, 3))
MAP_PIECES = (identity, lambda v: not v, lambda v: v + 100)
chain_ops = st.lists(
    st.one_of(
        st.tuples(st.just("acc"), st.sampled_from(range(len(MAP_PIECES)))),
        st.tuples(st.just("push"), field_values),
        st.just(("pop",)),
        st.just(("dup",)),
    ),
    max_size=8,
)


def build_chain(acc_kind, ops):
    """A show or map seed over a raw field list, then ops in order."""
    if acc_kind == "show":
        p = depure_show(identity)
    else:
        p = depure_map("device", identity)
    for op in ops:
        if op[0] == "acc":
            p = showa(p, render_value) if acc_kind == "show" else mapa(p, MAP_PIECES[op[1]])
        elif op[0] == "push":
            p = push(p, op[1])
        else:
            p = {"pop": pop, "dup": dup}[op[0]](p)
    return p


def outcome(p, record):
    try:
        return p(record)
    except Exception as exc:  # compared by class with the reference's
        return type(exc)


@given(st.sampled_from(["show", "map"]), st.lists(field_values, max_size=5), chain_ops)
def test_pipeline_values_equal_nested_closures(acc_kind, fields, ops):
    flat = build_chain(acc_kind, ops)
    with patch.object(pipelines, "hom_wrap", nested_hom_wrap), patch.object(
        pipelines, "hom_wrap0", nested_hom_wrap0
    ):
        nested = build_chain(acc_kind, ops)
    assert isinstance(flat, Pipeline) == bool(ops)
    assert not isinstance(nested, Pipeline)
    record = field_list(*fields)
    assert outcome(flat, record) == outcome(nested, record)
