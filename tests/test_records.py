import pytest
from hypothesis import given
from hypothesis import strategies as st

from recplug.errors import (
    ArityError,
    Error,
    FieldTypeError,
    IntOverflowError,
)
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
    kind_of,
    list_fields,
    schema_for,
)

from support import XInt, XStr, builder_values, ref_apply_field, ref_finish

int64 = st.integers(min_value=I64_MIN, max_value=I64_MAX)

devices = st.builds(Device, st.booleans(), int64, int64)
benchmarks = st.builds(Benchmark, int64, st.text(), int64, st.text())


def rebuild(record, type_id):
    """Independent reconstruction: fold apply_field over the field list."""
    b = Builder(schema_for(type_id))
    for v in list_fields(schema_for(type_id).destruct(record)):
        b = apply_field(b, v)
    return finish(b)


def test_destructure_device_example():
    assert destructure_device(EXAMPLE_DEVICE) == (False, (19, (1, ())))
    assert destructure_device(Device(True, 0, 0)) == (True, (0, (0, ())))


def test_destructure_benchmark_example():
    assert destructure_benchmark(Benchmark(10, "a", 20, "b")) == (
        10,
        ("a", (20, ("b", ()))),
    )
    assert destructure_benchmark(Benchmark(0, "", 0, "")) == (0, ("", (0, ("", ()))))


@given(devices)
def test_device_round_trip_through_builder(d):
    assert rebuild(d, "device") == d


@given(benchmarks)
def test_benchmark_round_trip_through_builder(b):
    assert rebuild(b, "benchmark") == b


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
    with pytest.raises(ArityError, match="already has all 3 fields"):
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


def test_a_long_str_in_a_bool_field_gives_a_short_error():
    """The value is echoed as its first 40 characters and its length."""
    with pytest.raises(FieldTypeError) as info:
        apply_field(Builder(schema_for("device")), "x" * 100_000)
    assert str(info.value) == (
        f"field 'block' of device expects bool, got str ({'x' * 40!r}… (100000 characters))"
    )
    assert len(str(info.value)) < 200


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


def test_finish():
    assert finish(Builder(schema_for("device"), (True, 119, 201))) == Device(
        True, 119, 201
    )
    assert finish(
        Builder(schema_for("benchmark"), (40, "ac", 60, "bd"))
    ) == Benchmark(40, "ac", 60, "bd")
    with pytest.raises(ArityError):
        finish(Builder(schema_for("device"), (False, 19)))


def test_kind_of_distinguishes_bool_from_int():
    assert kind_of(True) is Kind.BOOL
    assert kind_of(1) is Kind.INT
    assert kind_of("1") is Kind.STR
    assert kind_of(1.0) is Kind.REAL
    with pytest.raises(FieldTypeError):
        kind_of(object())


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
    inputs = rebuild(Benchmark("run --fast", "a", "run --slow", "b"), "benchmark_argv")
    assert inputs.first_app == "run --fast"


def test_avgs_instantiation_builds():
    avgs = Benchmark(20.0, "ac", 30.0, "bd")
    assert rebuild(avgs, "benchmark_avg") == avgs
    with pytest.raises(FieldTypeError):
        rebuild(avgs, "benchmark")  # real apps do not fit the int instantiation


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Error as exc:
        return type(exc), str(exc)


@given(st.sampled_from(sorted(REGISTRY)), st.lists(builder_values, max_size=6))
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
    """The derived types are no part of a schema's value: a positionally
    built schema compares, hashes and prints by its four arguments alone."""
    specs = tuple(FieldSpec(f"f{i}", k) for i, k in enumerate(Kind))
    a, b = (RecordSchema("kinds", tuple, list_fields, specs) for _ in range(2))
    assert a.types == (bool, int, str, float)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        f"RecordSchema(type_id='kinds', ctor={tuple!r}, destruct={list_fields!r}, fields={specs!r})"
    )
    assert a != RecordSchema("kinds", tuple, list_fields, specs[:2])
    with pytest.raises(TypeError):
        RecordSchema("kinds", tuple, list_fields, specs, {}, (int,) * 4)
    for schema in REGISTRY.values():
        assert len(schema.types) == schema.arity


def test_every_way_to_make_a_schema_derives_types():
    """``_make`` and ``_replace`` go through ``__init__``: the copy derives
    its own types and gets its own codec plan."""
    made = (
        RecordSchema._make(BENCHMARK_SCHEMA),
        DEVICE_SCHEMA._replace(fields=BENCHMARK_SCHEMA.fields),
    )
    for schema in made:
        assert schema.types == (int, str, int, str)
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
