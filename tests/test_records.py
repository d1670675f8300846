import math
import re
from dataclasses import field, make_dataclass
from functools import reduce
from unittest.mock import Mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from recplug.codecs import encode_binary, from_named, show_line, to_named
from recplug.errors import (
    ArityError,
    CodecError,
    ContinuationShapeError,
    Error,
    FieldTypeError,
    IntOverflowError,
    MissingKeyError,
    PieceKindError,
    UnknownTypeError,
)
from recplug.pipelines import depure_map, mapa, render_value, run_map
from recplug.plug import mapper, plug, run_instance
from recplug.records import (
    BENCHMARK_SCHEMA,
    DEVICE_SCHEMA,
    EXAMPLE_DEVICE,
    I64_MAX,
    I64_MIN,
    REGISTRY,
    Benchmark,
    Builder,
    Device,
    FieldSpec,
    Kind,
    RecordSchema,
    apply_field,
    destructure_benchmark,
    destructure_device,
    finish,
    list_fields,
    plain_value,
    register,
    schema_for,
)
from recplug.records import _echo
from recplug.scott import chop2_cps, cps_destructor, depure_map_cps, mapa_cps, run_map_cps

from support import (
    Level,
    SubInt,
    SubReal,
    XInt,
    XStr,
    builder_values,
    rebuild,
    ref_apply_field,
    ref_finish,
    ref_quote,
)


def test_destructure_device_example():
    assert destructure_device(EXAMPLE_DEVICE) == (False, (19, (1, ())))
    assert destructure_device(Device(True, 0, 0)) == (True, (0, (0, ())))


def test_destructure_benchmark_example():
    assert destructure_benchmark(Benchmark(10, "a", 20, "b")) == (
        10,
        ("a", (20, ("b", ()))),
    )
    assert destructure_benchmark(Benchmark(0, "", 0, "")) == (0, ("", (0, ("", ()))))


def test_destructure_preserves_field_count():
    for type_id, record in (
        ("device", EXAMPLE_DEVICE),
        ("benchmark", Benchmark(1, "x", 2, "y")),
    ):
        schema = schema_for(type_id)
        assert len(list_fields(schema.destruct(record))) == schema.arity


def test_apply_field_definition():
    b = apply_field(Builder(schema_for("device")), True)
    assert b.supplied == (True,)


def test_apply_field_three_then_finish():
    b = Builder(schema_for("device"))
    for v in (False, 19, 1):
        b = apply_field(b, v)
    assert finish(b) == EXAMPLE_DEVICE


def test_apply_field_on_full_builder():
    b = Builder(schema_for("device"), (True, 119, 201))
    with pytest.raises(ArityError):
        apply_field(b, 5)
    with pytest.raises(ArityError, match=r"^apply_field: device builder already has all 3 fields$"):
        Builder(schema_for("device"), (False, 19, 1, 7))


def test_apply_field_kind_mismatch():
    with pytest.raises(FieldTypeError):
        apply_field(Builder(schema_for("device")), 19)  # block wants a bool
    b = apply_field(Builder(schema_for("device")), True)
    with pytest.raises(FieldTypeError):
        apply_field(b, "many")  # major wants an int
    # A subclass value is shown as its base type's repr, not its own.
    with pytest.raises(FieldTypeError, match=r"expects bool, got int \(7\)$"):
        apply_field(Builder(schema_for("device")), XInt(7))
    with pytest.raises(FieldTypeError, match=r"expects int, got str \('many'\)$"):
        apply_field(b, XStr("many"))
    # Values supplied to the constructor are checked as apply_field checks them.
    with pytest.raises(FieldTypeError, match=r"'block' of device expects bool, got str \('x'\)$"):
        Builder(schema_for("device"), ("x", 19, 1))
    with pytest.raises(FieldTypeError, match=r"^field 'major' of device expects int, got str \('x'\)$"):
        Builder(DEVICE_SCHEMA, (True, "x"))


def test_a_long_str_in_a_bool_field_gives_a_short_error():
    """The value is echoed as its first 40 characters and its length."""
    with pytest.raises(FieldTypeError) as info:
        apply_field(Builder(schema_for("device")), "x" * 100_000)
    assert str(info.value) == (
        f"field 'block' of device expects bool, got str ({'x' * 40!r}… (100000 characters))"
    )
    assert len(str(info.value)) < 200


def test_a_long_piece_or_type_id_gives_a_short_error():
    """A value the caller names (a piece, type id, class, field name, kind or
    CPS state) is echoed whole while its repr has at most 40 characters, and
    past that cut (an int past 20 digits, of any class, is never made
    decimal), so a long value gives a short message of its own class; an
    unhashable type id is an unknown one, and a type id of more than 40
    characters is refused.  A dataclass with 20,000 keyword-only fields, or
    one with a 100,000-character name, is refused as briefly."""
    device = mapper("device", destructure_device)
    with pytest.raises(PieceKindError, match=r"^mapper expects a unary field function, got 5$"):
        plug(device, 5)
    for type_id, echo in (("nope", "'nope'"), (5, "5")):
        with pytest.raises(UnknownTypeError, match=f"^unregistered record type: {echo}$"):
            schema_for(type_id)
    kinds, names = (Kind.BOOL, Kind.INT, Kind.INT), ("n" * 1000, "b", "c", "d")
    big = SubInt(10**5000)  # an int subclass value is never made decimal either
    # No generated methods: dataclasses takes seconds to make them for 20,000 fields.
    many_kw_only = make_dataclass("Many", [f"k{i}" for i in range(20_000)],
                                  kw_only=True, init=False, repr=False, eq=False)
    long_class = make_dataclass("C" * 100_000, [("k", int, field(kw_only=True))])
    long_name = RecordSchema("long_name", Benchmark, destructure_benchmark,
                             tuple(FieldSpec(n, Kind.STR) for n in names))
    for error, call in (
        (PieceKindError, lambda: plug(device, "x" * 1_000_000)),
        (PieceKindError, lambda: plug(device, list(range(100_000)))),
        (UnknownTypeError, lambda: schema_for("y" * 1_000_000)),
        (ValueError, lambda: register("x" * 10**6 + "\ud800", Device, kinds)),
        (ValueError, lambda: register("twice", Device, kinds, ("a" * 10**6,) * 2 + ("c",))),
        (ValueError, lambda: register("kindless", Device, ("k" * 10**6,) + kinds[1:])),
        (MissingKeyError, lambda: from_named("{}", long_name)),
        (CodecError, lambda: show_line(Benchmark("x y", "b", "c", "d"), long_name, "pair")),
        (ContinuationShapeError,
         lambda: chop2_cps(lambda k: k(tuple(range(1000)), 1), max)(lambda *args: args)),
        (UnknownTypeError, lambda: schema_for([1])),
        (UnknownTypeError, lambda: mapper([1], destructure_device)),
        (UnknownTypeError, lambda: schema_for(10**5000)),
        (PieceKindError, lambda: plug(device, 10**5000)),
        (TypeError, lambda: register("x", 10**5000, ())),
        (TypeError, lambda: register("x", "c" * 10**6, ())),
        (ValueError, lambda: register("t" * 41, Device, kinds)),
        (ValueError, lambda: register("x", many_kw_only, ())),
        (ValueError, lambda: register("x", long_class, ())),
        (UnknownTypeError, lambda: schema_for(big)),
        (PieceKindError, lambda: plug(device, big)),
        (TypeError, lambda: register("x", big, ())),
        (ValueError, lambda: RecordSchema("k", Device, destructure_device, (FieldSpec("a", big),))),
        (ContinuationShapeError, lambda: chop2_cps(lambda k: k(big, 1), max)(lambda *args: args)),
        (UnknownTypeError, lambda: schema_for(Mock(spec=int))),  # an int by isinstance only
    ):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and len(str(info.value)) < 200


#: Ints of 0 to 5001 digits where the digit count changes: 10**n - 1 (n nines),
#: 10**n and 10**n + 1, of either sign.
edge_ints = st.builds(lambda n, d, sign: sign * (10**n + d),
                      st.integers(0, 5001), st.integers(-1, 1), st.sampled_from([1, -1]))


@given(st.one_of(
    edge_ints,
    st.just(True),
    edge_ints.map(SubInt),
    edge_ints.map(XInt),
    st.sampled_from(Level),
    st.text(),
    st.floats(),
    st.lists(st.integers(-1000, 1000)).map(tuple),
    st.integers(1, 100).map(lambda n: type("C" * n, (), {})),
))
@example(SubInt(10**25))
@example(XInt(-(10**20)))
@example(10**20 - 1)
@example(-(10**20 - 1))
def test_an_echo_shows_any_int_past_20_digits_by_its_bit_length(value):
    """``_echo`` agrees with ``ref_quote``: an int past 20 digits, of any
    class, shows as its sign and bit length; a smaller subclass value or a
    bool keeps its repr, and a str or any other value is cut past 40."""
    assert _echo(value) == ref_quote(value)


def test_a_subclass_value_is_stored_as_its_plain_copy():
    b = Builder(schema_for("device"), (True, XInt(19)))
    assert type(b.supplied[1]) is int and b.supplied[1] == 19
    assert repr(finish(apply_field(b, XInt(1)))) == "Device(block=True, major=19, minor=1)"


def test_apply_field_int_range():
    b = apply_field(Builder(schema_for("device")), True)
    with pytest.raises(IntOverflowError):
        apply_field(b, I64_MAX + 1)
    with pytest.raises(IntOverflowError):
        apply_field(b, I64_MIN - 1)
    with pytest.raises(IntOverflowError, match=f"range: {I64_MAX + 1}$"):
        apply_field(b, XInt(I64_MAX + 1))
    assert apply_field(b, I64_MAX).supplied[-1] == I64_MAX


@pytest.mark.parametrize("real", [math.inf, -math.inf, math.nan, SubReal(math.inf)],
                         ids=["inf", "-inf", "nan", "SubReal-inf"])
def test_a_non_finite_real_is_refused_wherever_a_record_is_built(real):
    """apply_field, a mapa and a mapa_cps pipeline and a mapper instance
    over benchmark_avg each refuse an infinite or NaN real in a real field
    with check_field's one message, as they refuse a value of another kind."""
    schema = schema_for("benchmark_avg")
    record, maps = Benchmark(1.5, "a", 2.5, "b"), (lambda a: real, str, float, str)
    builds = (
        lambda: apply_field(Builder(schema), real),
        lambda: run_map(reduce(mapa, maps, depure_map("benchmark_avg", schema.destruct))(record)),
        lambda: run_map_cps(reduce(mapa_cps, maps, depure_map_cps(
            "benchmark_avg", cps_destructor("benchmark_avg")))(record)),
        lambda: run_instance(reduce(plug, maps, mapper("benchmark_avg", schema.destruct)), record),
    )
    message = f"field 'firstApp' of benchmark_avg expects a finite real, got {float(real)!r}"
    for build in builds:
        with pytest.raises(FieldTypeError, match=f"^{re.escape(message)}$"):
            build()


def test_finish():
    assert finish(Builder(schema_for("device"), (True, 119, 201))) == Device(
        True, 119, 201
    )
    assert finish(
        Builder(schema_for("benchmark"), (40, "ac", 60, "bd"))
    ) == Benchmark(40, "ac", 60, "bd")
    with pytest.raises(ArityError):
        finish(Builder(schema_for("device"), (False, 19)))


class ClaimsInt:
    """Not a field value, though its ``__class__`` claims int."""

    @property
    def __class__(self):
        return int


def test_kind_of_distinguishes_bool_from_int():
    """plain_value decides a value's kind by its class, bool before int, and
    copies a subclass value to its plain type.  A value whose class subclasses
    no field type is refused with FieldTypeError, whatever its ``__class__``
    claims, by the helper and by every boundary that takes a field value."""
    for v, kind, plain_type in ((True, Kind.BOOL, bool), (1, Kind.INT, int), ("1", Kind.STR, str),
                                (1.0, Kind.REAL, float), (SubInt(7), Kind.INT, int),
                                (XStr("s"), Kind.STR, str), (Level.HIGH, Kind.INT, int)):
        got, plain = plain_value(v)
        assert got is kind and type(plain) is plain_type and plain == v
    fakes = (object(), Mock(spec=bool), Mock(spec=int), Mock(spec=str), Mock(spec=float), ClaimsInt())
    assert all(isinstance(fake, (bool, int, str, float)) for fake in fakes[1:])
    for fake in fakes:
        refusal = f"^not a field value: type '{type(fake).__name__}'$"
        boundaries = (
            lambda: plain_value(fake),
            lambda: apply_field(Builder(DEVICE_SCHEMA, (True,)), fake),
            lambda: render_value(fake),
            lambda: to_named(Device(True, fake, 1), DEVICE_SCHEMA),
            lambda: encode_binary(Device(True, fake, 1), DEVICE_SCHEMA),
            lambda: show_line(Device(fake, 1, 1), DEVICE_SCHEMA, "lisp"),
            lambda: show_line(Device(fake, 1, 1), DEVICE_SCHEMA, "scott"),
        )
        for call in boundaries:
            with pytest.raises(FieldTypeError, match=refusal):
                call()


def test_registry_has_one_entry_per_type():
    assert sorted(REGISTRY) == [
        "benchmark",
        "benchmark_argv",
        "benchmark_avg",
        "device",
    ]
    for type_id, schema in REGISTRY.items():
        assert schema_for(type_id) is schema


def test_benchmark_instantiations_share_shape():
    names = [f.name for f in schema_for("benchmark").fields]
    for type_id in ("benchmark_avg", "benchmark_argv"):
        assert [f.name for f in schema_for(type_id).fields] == names
    assert schema_for("benchmark_avg").fields[0].kind is Kind.REAL
    assert schema_for("benchmark_argv").fields[0].kind is Kind.STR


def test_argv_instantiation_builds():
    inputs = rebuild(Benchmark("run --fast", "a", "run --slow", "b"), schema_for("benchmark_argv"))
    assert inputs.first_app == "run --fast"


def test_avgs_instantiation_builds():
    avgs = Benchmark(20.0, "ac", 30.0, "bd")
    assert rebuild(avgs, schema_for("benchmark_avg")) == avgs
    with pytest.raises(FieldTypeError):
        rebuild(avgs, schema_for("benchmark"))  # real apps do not fit the int instantiation


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Error as exc:
        return type(exc), str(exc)


@given(st.sampled_from(sorted(REGISTRY)), st.lists(builder_values, max_size=6))
@example("device", [True, I64_MIN, I64_MAX])  # whole records at the i64 extremes
@example("benchmark", [I64_MAX, "", I64_MIN, ""])  # and with empty strings
def test_builder_matches_tuple_reference(type_id, values):
    """Field by field, the cons-chain Builder agrees with the tuple-copying
    one: same supplied values, equality and hash, and the same record or the
    same error class and message from apply_field and finish."""
    schema = schema_for(type_id)
    b, ref = Builder(schema), ()
    for v in values:
        assert b.supplied == ref
        assert b == Builder(schema, ref) and hash(b) == hash(Builder(schema, ref))
        assert _outcome(finish, b) == _outcome(ref_finish, schema, ref)
        got, want = _outcome(apply_field, b, v), _outcome(ref_apply_field, schema, ref, v)
        if want[0] != "ok":
            assert got == want
            return
        b, ref = got[1], want[1]
    assert b.supplied == ref
    assert _outcome(finish, b) == _outcome(ref_finish, schema, ref)


def test_positional_schema_derives_types():
    """The derived types and arity are no part of a schema's value: a positionally
    built schema compares, hashes and prints by its four arguments alone."""
    specs = tuple(FieldSpec(f"f{i}", k) for i, k in enumerate(Kind))
    a, b = (RecordSchema("kinds", tuple, list_fields, specs) for _ in range(2))
    assert (a.types, a.arity) == ((bool, int, str, float), 4)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        f"RecordSchema(type_id='kinds', ctor={tuple!r}, destruct={list_fields!r}, fields={specs!r})"
    )
    assert a != RecordSchema("kinds", tuple, list_fields, specs[:2])
    with pytest.raises(TypeError):
        RecordSchema("kinds", tuple, list_fields, specs, {}, (int,) * 4)
    for schema in REGISTRY.values():
        assert len(schema.types) == schema.arity == len(schema.fields)


def test_every_way_to_make_a_schema_derives_types():
    """``_make`` and ``_replace`` go through ``__init__``: the copy derives
    its own types and arity and gets its own codec plan."""
    made = (
        RecordSchema._make(BENCHMARK_SCHEMA),
        DEVICE_SCHEMA._replace(fields=BENCHMARK_SCHEMA.fields),
    )
    for schema in made:
        assert (schema.types, schema.arity) == ((int, str, int, str), 4)
        assert schema.wire_names == {"firstApp", "firstLog", "secondApp", "secondLog"}
        assert schema.codec_plan == {} and schema.codec_plan is not BENCHMARK_SCHEMA.codec_plan


def test_a_schema_carries_its_wire_name_set():
    for schema in REGISTRY.values():
        assert type(schema.wire_names) is frozenset
        assert schema.wire_names == {f.name for f in schema.fields}
    assert DEVICE_SCHEMA.wire_names == {"block", "major", "minor"}


def test_sample_records_are_immutable_named_tuples():
    """Device and Benchmark print their fields by name, refuse a field
    assignment, and each equals the tuple of its values."""
    b = Benchmark(1, "a", 2.5, "b")
    assert repr(EXAMPLE_DEVICE) == "Device(block=False, major=19, minor=1)"
    assert repr(b) == "Benchmark(first_app=1, first_log='a', second_app=2.5, second_log='b')"
    for record, name in ((EXAMPLE_DEVICE, "major"), (b, "first_log")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert (EXAMPLE_DEVICE, b) == ((False, 19, 1), (1, "a", 2.5, "b"))


def test_builder_steps_share_their_prefix():
    schema = schema_for("device")
    half = apply_field(Builder(schema), True)
    left, right = apply_field(half, 1), apply_field(half, 2)
    assert (half.supplied, left.supplied, right.supplied) == ((True,), (True, 1), (True, 2))
    assert left != right and half == Builder(schema, (True,))
    assert finish(apply_field(left, 3)) == Device(True, 1, 3)


def test_a_builder_equals_no_other_type():
    b = Builder(DEVICE_SCHEMA, (True,))
    assert b.__eq__((DEVICE_SCHEMA, (True,))) is NotImplemented
    assert b != (DEVICE_SCHEMA, (True,)) and b != "Builder"
    assert b == Builder(DEVICE_SCHEMA, (True,))
