"""Record types, field kinds, nested-pair field lists, and staged builders.

A record's fields travel as a *field list*: nested pairs terminated by the
empty tuple, ``(b, (x, (y, ())))``.  A :class:`Builder` is the staged
counterpart of a record constructor: it accepts fields one at a time and
yields the record after exactly arity applications.  A schema derives each
field's exact type once, so a step checks a plain value with one ``type(v)
is t`` test (and an inline range test: i64 for an int, finite for a real);
any other value goes to ``check_field``, every codec's one kind and range check.
Records, field specs and schemas are ``collections.namedtuple`` classes, so
importing recplug loads none of ``dataclasses``, ``inspect`` and ``typing``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from enum import Enum
from functools import reduce
from math import isfinite
from operator import attrgetter

from .errors import ArityError, FieldTypeError, IntOverflowError, UnknownTypeError

Value = bool | int | str | float

#: Field lists are plain nested pairs; () is the terminator.
FieldList = tuple

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class Kind(Enum):
    BOOL = "bool"
    INT = "int"
    STR = "str"
    REAL = "real"


#: The exact type of each kind's plain values.
TYPE_OF = {Kind.BOOL: bool, Kind.INT: int, Kind.STR: str, Kind.REAL: float}

#: The base slot of each exact type: it copies a subclass value to a plain one
#: and runs none of its overrides.  bool has no subclasses; its copy is itself.
PLAIN_COPY = {bool: bool, int: int.__int__, str: str.__str__, float: float.__float__}


def plain_value(v: Value) -> tuple[Kind, Value]:
    """``v``'s kind and plain copy.  ``v``'s class decides them, so a
    ``__class__`` that names a field type makes no field value."""
    for kind, t in TYPE_OF.items():  # bool before int: bool is an int subclass
        if issubclass(type(v), t):
            return kind, PLAIN_COPY[t](v)
    raise FieldTypeError(f"not a field value: type {_echo(type(v).__name__)}")


# ---------------------------------------------------------------------------
# Sample record types


class Device(namedtuple("Device", "block major minor")):
    """A device number: ``block`` (bool), ``major`` and ``minor`` (int)."""

    __slots__ = ()


class Benchmark(namedtuple("Benchmark", "first_app first_log second_app second_log")):
    """Two benchmarked runs: a measurement and a log per run.

    The logs are str.  The app fields are polymorphic (a ``Value``): int for
    raw outputs, float for averages, str for space-joined argv inputs.
    """

    __slots__ = ()


EXAMPLE_DEVICE = Device(block=False, major=19, minor=1)


# ---------------------------------------------------------------------------
# Field-list plumbing


def list_fields(fl: FieldList) -> list:
    """Flatten a field list back into a plain list, in field order."""
    out = []
    while fl != ():
        head, fl = fl
        out.append(head)
    return out


# ---------------------------------------------------------------------------
# Schemas and the type registry


class FieldSpec(namedtuple("FieldSpec", "name kind")):
    """One field's wire ``name`` (str) and its ``kind`` (a ``Kind``)."""

    __slots__ = ()


class RecordSchema(namedtuple("RecordSchema", "type_id ctor destruct fields")):
    """The single source of truth for one record type.

    ``ctor`` builds a record from its fields by position, ``destruct`` maps
    a record to its field list, and ``fields`` holds one ``FieldSpec`` per
    field.  Everything schema-derived (builders, codecs, wire names) reads
    from this one entry; no type has a second field listing anywhere.
    """

    def __init__(self, *value):
        type_id = self.type_id  # messages name it unquoted, and --help sorts the ids
        if type(type_id) is not str or len(type_id) > 40 or not type_id.isprintable():
            raise ValueError(f"type id {_echo(type_id)} is not a printable str"
                             " of at most 40 characters")  # nor has a lone surrogate
        seen = set()
        for f in self.fields:
            if not isinstance(f.kind, Kind):
                raise ValueError(f"field {_echo(f.name)} of {type_id}: {_echo(f.kind)} is not a Kind")
            if type(f.name) is not str or any("\ud800" <= c <= "\udfff" for c in f.name):
                raise ValueError(f"field name {_echo(f.name)} of {type_id}"
                                 " is not a str with a UTF-8 image")
            if f.name in seen:  # its JSON object would repeat a key
                raise ValueError(f"field name {_echo(f.name)} of {type_id} is repeated")
            seen.add(f.name)
        #: The codecs staged from this schema by ``codecs``; not part of its value.
        self.codec_plan = {}
        #: Each field's exact type, derived from its kind; not part of its value.
        self.types = tuple(TYPE_OF[f.kind] for f in self.fields)
        #: The number of fields; not part of its value.
        self.arity = len(self.fields)
        #: The set of wire names, which ``from_named`` reads; not part of its value.
        self.wire_names = frozenset(seen)

    #: The inherited ``_make``, which ``_replace`` calls, would skip ``__init__``.
    _make = classmethod(lambda cls, values: cls(*values))


REGISTRY: dict[str, RecordSchema] = {}


def _pair_destructor(names: tuple[str, ...]) -> Callable[[object], FieldList]:
    """r -> the field list of r's attributes ``names``, in order."""
    getters = [attrgetter(n) for n in reversed(names)]

    def destruct(r) -> FieldList:
        out: FieldList = ()
        for get in getters:
            out = (get(r), out)
        return out

    return destruct


def register(type_id: str, cls: type, kinds, wire_names=()) -> RecordSchema:
    """Declare ``cls`` as record type ``type_id``.

    ``cls.__match_args__``, which a dataclass, a ``collections.namedtuple``
    and a ``typing.NamedTuple`` set, names the fields ``cls`` takes by
    position; in that order they give the field list.  Field i has kind
    ``kinds[i]`` and is named ``wire_names[i]`` on the wire (the attribute
    name when ``wire_names`` is empty; a str is one name, never split into
    characters).  The destructor reads the same fields, and the schema is
    stored in ``REGISTRY``.  ``type_id`` is a printable str of at most 40
    characters, each wire name a str with a UTF-8 image, used once.  A bad
    declaration, a keyword-only or InitVar dataclass field included, raises
    and changes nothing.
    """
    names = getattr(cls, "__match_args__", None)
    if names is None:
        raise TypeError(f"{_echo(cls)} has no __match_args__: make it a dataclass or a NamedTuple")
    # dataclasses' own mark of an InitVar, which a string annotation gets too
    dropped = [f.name for f in getattr(cls, "__dataclass_fields__", {}).values()
               if f.init and f.kw_only is True or f._field_type.name == "_FIELD_INITVAR"]
    if dropped:
        raise ValueError(f"{_echo(cls.__name__)} has keyword-only or InitVar field(s)"
                         f" {_echo(dropped)}: register takes stored positional fields only")
    kinds = tuple(kinds)
    wires = (wire_names,) if isinstance(wire_names, str) else tuple(wire_names) or tuple(names)
    if type(names) is not tuple or any(type(n) is not str for n in names) \
            or not len(names) == len(kinds) == len(wires):
        raise ValueError(f"{_echo(cls.__name__)} has fields {_echo(names)}, {len(kinds)} kind(s)"
                         f" and {len(wires)} wire name(s): need a str tuple, one kind and name each")
    specs = tuple(map(FieldSpec, wires, kinds))
    schema = RecordSchema(type_id, cls, _pair_destructor(names), specs)
    if type_id in REGISTRY:
        raise ValueError(f"record type {_echo(type_id)} is already registered")
    REGISTRY[type_id] = schema
    return schema


DEVICE_SCHEMA = register("device", Device, (Kind.BOOL, Kind.INT, Kind.INT))

_BENCHMARK_NAMES = ("firstApp", "firstLog", "secondApp", "secondLog")

# One entry per instantiation of the polymorphic app fields.
BENCHMARK_SCHEMA = register(
    "benchmark", Benchmark, (Kind.INT, Kind.STR) * 2, _BENCHMARK_NAMES
)
AVGS_SCHEMA = register(
    "benchmark_avg", Benchmark, (Kind.REAL, Kind.STR) * 2, _BENCHMARK_NAMES
)
ARGV_SCHEMA = register("benchmark_argv", Benchmark, (Kind.STR,) * 4, _BENCHMARK_NAMES)

destructure_device = DEVICE_SCHEMA.destruct
destructure_benchmark = BENCHMARK_SCHEMA.destruct


def schema_for(type_id: str) -> RecordSchema:
    try:
        return REGISTRY[type_id]
    except (KeyError, TypeError):  # an unhashable id is no registered one either
        raise UnknownTypeError(f"unregistered record type: {_echo(type_id)}") from None


_I64_DIGITS = len(str(I64_MIN))  # a longer canonical literal is out of range


def _echo(value) -> str:
    """A diagnostic's one echo of a value, so a long one gives a short message:
    a plain int, or any int past 20 digits, as ``_int_excerpt`` shows its plain
    copy; a str as the repr of its longest prefix of at most 40 characters whose
    repr has at most 42 UTF-8 bytes (quotes included), then its length; any
    other value as its repr up to 40 characters, past that cut as that text is."""
    if issubclass(t := type(value), int) and (t is int or abs(int.__int__(value)) >= 10**_I64_DIGITS):
        return _int_excerpt(int.__int__(value))
    if type(value) is not str and len(value := repr(value)) <= 40:
        return value
    n = min(len(value), 40)
    while len((shown := repr(value[:n])).encode()) > 42:
        n -= 1
    return shown if n == len(value) else f"{shown}… ({len(value)} characters)"


def _int_excerpt(v) -> str:
    """An echo of a plain int or its literal: whole up to 20 characters, else
    its first 20 and its digit count; past 20 digits an int is never made
    decimal (that raises past 4300 digits) and shows as sign and bit length."""
    if type(v) is int and abs(v) >= 10**_I64_DIGITS:  # more than 20 digits
        return f"{'a negative' if v < 0 else 'an'} int of {v.bit_length()} bits"
    v = str(v)  # a plain int's literal, or the literal itself
    return v if len(v) <= _I64_DIGITS else f"{v[:_I64_DIGITS]}… ({len(v.lstrip('-'))} digits)"


def _out_of_range(v) -> str:
    """The out-of-range message for a plain int or an int literal."""
    return f"integer out of 64-bit signed range: {_int_excerpt(v)}"


def check_field(schema: RecordSchema, i: int, v: Value, error: type) -> Value:
    """``v``, or a subclass value's plain copy, if field ``i`` of ``schema`` admits
    it; else ``error`` (wrong kind, non-finite real) or IntOverflowError, echoing ``v`` briefly."""
    t = schema.types[i]
    if type(v) is t and (I64_MIN <= v <= I64_MAX if t is int else t is not float or isfinite(v)):
        return v
    got, v = plain_value(v)
    want = schema.fields[i]
    if got is not want.kind:
        raise error(f"field {_echo(want.name)} of {schema.type_id} expects"
                    f" {want.kind.value}, got {got.value} ({_echo(v)})")
    if got is Kind.INT and not I64_MIN <= v <= I64_MAX:
        raise IntOverflowError(_out_of_range(v))
    if got is Kind.REAL and not isfinite(v):
        raise error(f"field {_echo(want.name)} of {schema.type_id} expects a finite real,"
                    f" got {_echo(v)}")
    return v


# ---------------------------------------------------------------------------
# Staged builders


class Builder:
    """A record constructor applied one field at a time.

    ``Builder(schema, supplied)`` is ``reduce(apply_field, supplied,
    Builder(schema))``: the values ``supplied`` (in field order) applied to
    the empty builder, each by ``apply_field``.  They are kept as
    a persistent cons chain, newest first, with a count, so ``apply_field``
    adds one cell and copies nothing, and ``finish`` unrolls the chain once.
    Instances are never mutated; two builders are equal when their schemas
    and supplied values are.
    """

    __slots__ = ("schema", "_count", "_cells")

    def __new__(cls, schema: RecordSchema, supplied: tuple = ()):
        empty = object.__new__(cls)
        empty.schema, empty._count, empty._cells = schema, 0, ()
        return reduce(apply_field, supplied, empty)

    @property
    def supplied(self) -> tuple:
        """The values applied so far, in field order."""
        return tuple(reversed(list_fields(self._cells)))

    def __eq__(self, other):
        if not isinstance(other, Builder):
            return NotImplemented
        return self.schema == other.schema and self.supplied == other.supplied

    def __hash__(self):
        return hash((self.schema, self.supplied))

    def __repr__(self):
        return f"Builder(schema={self.schema!r}, supplied={self.supplied!r})"


def apply_field(b: Builder, v: Value) -> Builder:
    schema, done = b.schema, b._count
    try:
        t = schema.types[done]
    except IndexError:
        raise ArityError("apply_field", 0, f"apply_field: {schema.type_id} builder"
                         f" already has all {schema.arity} fields") from None
    if type(v) is not t or t is int and not I64_MIN <= v <= I64_MAX or t is float and not isfinite(v):
        v = check_field(schema, done, v, FieldTypeError)
    grown = object.__new__(Builder)
    grown.schema, grown._count, grown._cells = schema, done + 1, (v, b._cells)
    return grown


def finish(b: Builder) -> object:
    missing = b.schema.arity - b._count
    if missing:
        raise ArityError("finish", missing,
                         f"finish: {b.schema.type_id} builder still needs {missing} field(s)")
    return b.schema.ctor(*reversed(list_fields(b._cells)))
