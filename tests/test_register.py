"""A new record type is one ``register(...)`` call: its destructors, every
pipeline family, the plug instances, the three codecs and the CLI's
``--type`` choices all follow from that one declaration."""

import json
import operator
import re
import struct
from collections import namedtuple
from dataclasses import InitVar, dataclass, field
from functools import reduce
from typing import ClassVar, NamedTuple

import pytest

from recplug import plug, register
from recplug.codecs import (
    decode_binary,
    encode_binary,
    from_named,
    lexemes,
    parse_record,
    show_line,
    to_named,
)
from recplug.pipelines import (
    depure_map,
    depure_zip,
    mapa,
    render_value,
    run_map,
    run_show,
    run_zip,
    show_record,
    zipa,
)
from recplug.records import DEVICE_SCHEMA, REGISTRY, FieldSpec, Kind, RecordSchema
from recplug.scott import (
    cps_destructor,
    depure_map_cps,
    mapa_cps,
    run_map_cps,
)


@dataclass(frozen=True)
class Sensor:
    online: bool
    reading: int
    label: str


class SensorRow(NamedTuple):
    online: bool
    reading: int
    label: str


SensorTuple = namedtuple("SensorTuple", "online reading label")


class Plain:
    """A class that names no positional fields: neither a dataclass nor a NamedTuple."""

    def __init__(self, value):
        self.value = value


@dataclass(frozen=True)
class Solo:
    value: int


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Point:
    x: int
    y: int


class NumberedArgs:
    """A ``__match_args__`` that names no attribute; a class pattern refuses it too."""

    __match_args__ = (1, 2)


class StrArgs:
    __match_args__ = "ab"  # a class pattern wants a tuple, not its characters


class ListArgs:
    __match_args__ = ["a"]


@dataclass(frozen=True)
class Gauge:
    """Keyword-only fields, which no field list can carry, and a class variable."""

    level: int
    unit: str = field(kw_only=True)
    scale: int = field(default=1, kw_only=True)
    limit: ClassVar[int] = 9


@dataclass(frozen=True)
class Scaled:
    """Positional InitVars, which __init__ takes but no instance stores; the
    second one is spelled as a string annotation."""

    level: int
    factor: InitVar[int]
    offset: "InitVar[int]"


@dataclass(frozen=True)
class Tagged:
    """One keyword-only field and one InitVar, which one message names."""

    level: int
    unit: str = field(kw_only=True)
    factor: InitVar[int] = 1


SENSOR_KINDS = (Kind.BOOL, Kind.INT, Kind.STR)
SHAPE_RULE = "need a str tuple, one kind and name each"
MAPS = (operator.not_, lambda x: x * 3, str.upper)
ZIPS = (operator.or_, operator.sub, operator.add)


@pytest.fixture
def sensor():
    # The third field travels under a wire name other than its attribute.
    schema = register("sensor", Sensor, SENSOR_KINDS, ("online", "reading", "tag"))
    try:
        yield schema
    finally:
        del REGISTRY["sensor"]


def test_register_derives_the_schema(sensor):
    assert REGISTRY["sensor"] is sensor
    assert (sensor.type_id, sensor.ctor, sensor.arity) == ("sensor", Sensor, 3)
    assert [(f.name, f.kind) for f in sensor.fields] == list(
        zip(("online", "reading", "tag"), SENSOR_KINDS)
    )
    assert sensor.destruct(Sensor(True, 5, "x")) == (True, (5, ("x", ())))
    assert cps_destructor("sensor")(Sensor(True, 5, "x"))(lambda *v: v) == (True, 5, "x")


def test_pipelines_and_plug_instances(sensor):
    a, b = Sensor(True, 5, "ab"), Sensor(False, 2, "cd")
    d, d_cps = sensor.destruct, cps_destructor("sensor")

    assert run_show(show_record("sensor")(a)) == "True 5 ab"
    assert show_line(a, sensor, "scott") == "True 5 ab"

    mapped = Sensor(False, 15, "AB")
    assert run_map(reduce(mapa, MAPS, depure_map("sensor", d))(a)) == mapped
    assert run_map_cps(reduce(mapa_cps, MAPS, depure_map_cps("sensor", d_cps))(a)) == mapped

    zipped = Sensor(True, 3, "abcd")
    assert run_zip(reduce(zipa, ZIPS, depure_zip("sensor", d, d))(a, b)) == zipped

    instances = [
        (plug.mapper("sensor", d), MAPS, (a,), mapped),
        (plug.mapper_cps("sensor", d_cps), MAPS, (a,), mapped),
        (plug.shower("sensor", d), [render_value] * 3, (a,), "True 5 ab"),
        (plug.zipper("sensor", d, d), ZIPS, (a, b), zipped),
    ]
    for instance, pieces, inputs, expected in instances:
        assert instance.steps_remaining == 3
        assert plug.run_instance(reduce(plug.plug, pieces, instance), *inputs) == expected


def test_codecs_round_trip(sensor):
    r = Sensor(False, -(2**63), 'q"\\é')
    text = to_named(r, sensor)
    assert text == json.dumps(
        {"online": False, "reading": -(2**63), "tag": 'q"\\é'},
        separators=(",", ":"),
        ensure_ascii=False,
    )
    assert from_named(text, sensor) == r

    raw = 'q"\\é'.encode()
    image = encode_binary(r, sensor)
    assert image == struct.pack("<?qI", False, -(2**63), len(raw)) + raw
    assert decode_binary(image, sensor) == r

    shown = run_show(show_record("sensor")(r))
    assert parse_record(lexemes(shown), sensor) == r


def test_one_and_zero_field_types():
    try:
        solo = register("solo", Solo, (Kind.INT,))
        empty = register("empty", Empty, ())
        # attrgetter of one name returns the bare value; the list still ends in ().
        assert solo.destruct(Solo(3)) == (3, ())
        assert [f.name for f in solo.fields] == ["value"]
        assert run_show(show_record("solo")(Solo(3))) == "3"
        assert show_line(Solo(3), solo, "scott") == "3"
        assert from_named(to_named(Solo(3), solo), solo) == Solo(3)
        assert to_named(Solo(3), solo) == '{"value":3}'
        # A str given as wire_names is the one field's name.
        named = register("named", Solo, (Kind.INT,), "x")
        assert [f.name for f in named.fields] == ["x"]
        assert to_named(Solo(3), named) == '{"x":3}'
        assert empty.destruct(Empty()) == ()
        assert decode_binary(encode_binary(Empty(), empty), empty) == Empty()
    finally:
        REGISTRY.pop("solo", None)
        REGISTRY.pop("named", None)
        REGISTRY.pop("empty", None)


@pytest.mark.parametrize(
    "kinds,wire_names",
    [
        ((Kind.BOOL, Kind.INT), ()),
        (SENSOR_KINDS + (Kind.STR,), ()),
        (SENSOR_KINDS, ("online", "reading")),
        (SENSOR_KINDS, ("online", "reading", "tag", "extra")),
    ],
)
def test_length_mismatch_raises(kinds, wire_names):
    counts = f"{len(kinds)} kind(s) and {len(wire_names) or 3} wire name(s)"
    message = f"'Sensor' has fields ('online', 'reading', 'label'), {counts}: {SHAPE_RULE}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        register("mismatch", Sensor, kinds, wire_names)
    assert "mismatch" not in REGISTRY


def test_a_dataclass_and_a_namedtuple_register_alike():
    """The same fields declared as a dataclass, a typing.NamedTuple or a
    collections.namedtuple give the same wire forms, decode to records of
    their own class, and map alike through a plug instance."""
    seen = []
    for cls in (Sensor, SensorRow, SensorTuple):
        schema = register("sensor", cls, SENSOR_KINDS, ("online", "reading", "tag"))
        try:
            r = cls(True, -7, 'q"\\é')
            text, image = to_named(r, schema), encode_binary(r, schema)
            line = show_line(r, schema, "lisp")
            decoded = (
                from_named(text, schema),
                decode_binary(image, schema),
                parse_record(lexemes(line), schema),
            )
            assert all(type(d) is cls and d == r for d in decoded)
            instance = reduce(plug.plug, MAPS, plug.mapper("sensor", schema.destruct))
            mapped = plug.run_instance(instance, r)
            assert type(mapped) is cls
            seen.append((text, image, line, schema.destruct(mapped)))
        finally:
            del REGISTRY["sensor"]
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0] == '{"online":true,"reading":-7,"tag":"q\\"\\\\é"}'
    assert seen[0][3] == (False, (-21, ('Q"\\É', ())))


@pytest.mark.parametrize(
    "type_id,cls,kinds,wire_names,error,message",
    [
        # Its JSON object would repeat a key, which from_named rejects.
        ("bad", Sensor, SENSOR_KINDS, ("online", "tag", "tag"), ValueError,
         "field name 'tag' of bad is repeated"),
        ("bad", Sensor, ("bool", "int", "str"), (), ValueError,
         "field 'online' of bad: 'bool' is not a Kind"),
        ("bad", Plain, (Kind.INT,), (), TypeError,
         "has no __match_args__: make it a dataclass or a NamedTuple"),
        # A field with no kind, or no wire name, could not travel.
        ("bad", Point, (Kind.INT,), (), ValueError,
         f"'Point' has fields ('x', 'y'), 1 kind(s) and 2 wire name(s): {SHAPE_RULE}"),
        ("bad", Point, (Kind.INT,) * 3, (), ValueError,
         f"'Point' has fields ('x', 'y'), 3 kind(s) and 2 wire name(s): {SHAPE_RULE}"),
        ("bad", Point, (Kind.INT,) * 2, ("x",), ValueError,
         f"'Point' has fields ('x', 'y'), 2 kind(s) and 1 wire name(s): {SHAPE_RULE}"),
        # The destructor reads each field by its name, as a class pattern does.
        ("bad", NumberedArgs, (Kind.INT,) * 2, (), ValueError,
         f"'NumberedArgs' has fields (1, 2), 2 kind(s) and 2 wire name(s): {SHAPE_RULE}"),
        ("bad", StrArgs, (Kind.INT,) * 2, (), ValueError,
         f"'StrArgs' has fields 'ab', 2 kind(s) and 2 wire name(s): {SHAPE_RULE}"),
        ("bad", ListArgs, (Kind.INT,), (), ValueError,
         f"'ListArgs' has fields ['a'], 1 kind(s) and 1 wire name(s): {SHAPE_RULE}"),
        # A decoded record would hold scale's default, and lack unit.
        ("bad", Gauge, (Kind.INT,), (), ValueError,
         "'Gauge' has keyword-only or InitVar field(s) ['unit', 'scale']:"
         " register takes stored positional fields only"),
        # to_named would read the InitVars, which no Scaled instance has.
        ("bad", Scaled, (Kind.INT,) * 3, (), ValueError,
         "'Scaled' has keyword-only or InitVar field(s) ['factor', 'offset']:"
         " register takes stored positional fields only"),
        ("bad", Tagged, (Kind.INT,), (), ValueError,
         "'Tagged' has keyword-only or InitVar field(s) ['unit', 'factor']:"
         " register takes stored positional fields only"),
        # Its JSON key could not be written to a UTF-8 stdout.
        ("bad", Solo, (Kind.INT,), ("\ud800",), ValueError,
         "field name '\\ud800' of bad is not a str with a UTF-8 image"),
        # to_named, which writes each key as a JSON string, could not write it.
        ("bad", Solo, (Kind.INT,), (("a", "b"),), ValueError,
         "field name ('a', 'b') of bad is not a str with a UTF-8 image"),
        ("bad", Solo, (Kind.INT,), (5,), ValueError,
         "field name 5 of bad is not a str with a UTF-8 image"),
        # A str is one wire name, never split into one name per character.
        ("bad", Point, (Kind.INT,) * 2, "xy", ValueError,
         f"'Point' has fields ('x', 'y'), 2 kind(s) and 1 wire name(s): {SHAPE_RULE}"),
        # argparse could not write it among --type's choices to a UTF-8 stdout.
        ("bad\ud800", Solo, (Kind.INT,), (), ValueError,
         "type id 'bad\\ud800' is not a printable str of at most 40 characters"),
        # --help sorts the ids, which a str and a tuple cannot share.
        (("x", "y"), Solo, (Kind.INT,), (), ValueError,
         "type id ('x', 'y') is not a printable str of at most 40 characters"),
        (5, Solo, (Kind.INT,), (), ValueError,
         "type id 5 is not a printable str of at most 40 characters"),
        ([1], Solo, (Kind.INT,), (), ValueError,
         "type id [1] is not a printable str of at most 40 characters"),
        # A message that names it unquoted would span two lines, or reach the
        # terminal with a raw escape or a bidirectional override.
        ("two\nlines", Solo, (Kind.INT,), (), ValueError,
         "type id 'two\\nlines' is not a printable str of at most 40 characters"),
        ("\x1b[31mred", Solo, (Kind.INT,), (), ValueError,
         "type id '\\x1b[31mred' is not a printable str of at most 40 characters"),
        ("rtl\u202eid", Solo, (Kind.INT,), (), ValueError,
         "type id 'rtl\\u202eid' is not a printable str of at most 40 characters"),
    ],
    ids=["repeated-wire-name", "kind-not-a-Kind", "no-match-args", "one-kind-too-few",
         "one-kind-too-many", "one-wire-name-too-few", "int-match-args", "str-match-args",
         "list-match-args", "keyword-only-fields",
         "initvar-fields", "keyword-only-and-initvar-fields", "wire-name-not-utf8",
         "tuple-wire-name", "int-wire-name", "str-wire-names", "type-id-not-utf8", "tuple-type-id",
         "int-type-id", "list-type-id", "type-id-with-newline", "type-id-with-escape",
         "type-id-with-rtl-override"],
)
def test_a_bad_declaration_raises_and_registers_nothing(
    type_id, cls, kinds, wire_names, error, message
):
    before = dict(REGISTRY)
    try:
        with pytest.raises(error, match=re.escape(message)) as caught:
            register(type_id, cls, kinds, wire_names)
    finally:  # a declaration registered by mistake would reach every later test
        after = dict(REGISTRY)
        REGISTRY.clear()
        REGISTRY.update(before)
    assert "\n" not in str(caught.value)
    assert after == before


def test_duplicate_id_raises(sensor):
    before = dict(REGISTRY)
    with pytest.raises(ValueError, match="'sensor' is already registered"):
        register("sensor", Solo, (Kind.INT,))
    with pytest.raises(ValueError, match="'device' is already registered"):
        register("device", Sensor, SENSOR_KINDS)
    assert REGISTRY == before
    assert REGISTRY["sensor"] is sensor


def test_package_exports_register_and_each_module_keeps_its_name():
    """The package exports only ``register``; ``recplug.chop`` is the module,
    not a function re-exported under the module's name."""
    import recplug
    import recplug.chop as chop_module
    from recplug import register as exported

    assert (recplug.__all__, exported) == (["register"], register)
    assert chop_module.Pipeline.__module__ == "recplug.chop"
    assert callable(chop_module.hom_wrap)


@pytest.mark.parametrize(
    "change,message",
    [
        ({"fields": (FieldSpec("a", Kind.INT), FieldSpec("a", Kind.STR))},
         "field name 'a' of device is repeated"),
        ({"fields": (FieldSpec("a", "int"),)}, "field 'a' of device: 'int' is not a Kind"),
        ({"type_id": "d\ud800"},
         "type id 'd\\ud800' is not a printable str of at most 40 characters"),
        ({"type_id": "two\nlines"},
         "type id 'two\\nlines' is not a printable str of at most 40 characters"),
    ],
    ids=["repeated-wire-name", "kind-not-a-Kind", "type-id-not-utf8", "type-id-with-newline"],
)
def test_make_and_replace_validate_as_the_constructor_does(change, message):
    """``RecordSchema`` is a namedtuple, whose inherited ``_make`` (which
    ``_replace`` calls) would build a schema without running ``__init__``."""
    values = tuple({**DEVICE_SCHEMA._asdict(), **change}.values())
    for build in (lambda: RecordSchema(*values), lambda: RecordSchema._make(values),
                  lambda: DEVICE_SCHEMA._replace(**change)):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    renamed = DEVICE_SCHEMA._replace(type_id="device2")
    assert (renamed.types, renamed.wire_names, renamed.codec_plan) == (
        DEVICE_SCHEMA.types, DEVICE_SCHEMA.wire_names, {})
