"""Record types, field kinds, nested-pair field lists, and staged builders.

A record's fields travel as a *field list*: nested pairs terminated by the
empty tuple, ``(b, (x, (y, ())))``.  A :class:`Builder` is the staged
counterpart of a record constructor: it accepts fields one at a time and
yields the record after exactly arity applications.  A schema derives each
field's exact type once, so a step checks a plain value with one ``type(v)
is t`` test (and an inline i64 range test for an int); any other value, such
as a subclass instance, takes the ``kind_of`` path, which gives every error.
Records, field specs and schemas are ``NamedTuple`` types, not dataclasses,
so importing recplug loads neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Union

from .errors import ArityError, FieldTypeError, IntOverflowError, UnknownTypeError

Value = Union[bool, int, str, float]

#: Field lists are plain nested pairs; () is the terminator.
FieldList = tuple

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class Kind(Enum):
    BOOL = "bool"
    INT = "int"
    STR = "str"
    REAL = "real"


def kind_of(v: Value) -> Kind:
    if isinstance(v, bool):  # before int: bool is an int subclass
        return Kind.BOOL
    if isinstance(v, int):
        return Kind.INT
    if isinstance(v, str):
        return Kind.STR
    if isinstance(v, float):
        return Kind.REAL
    raise FieldTypeError(f"not a field value: {v!r}")


#: The exact type of each kind's plain values.
TYPE_OF = {Kind.BOOL: bool, Kind.INT: int, Kind.STR: str, Kind.REAL: float}
#: The base slot of each exact type that has subclasses (bool has none): it
#: copies a subclass value to a plain one and runs none of its overrides.
PLAIN_COPY = {int: int.__int__, str: str.__str__, float: float.__float__}


def check_int_range(v: int) -> int:
    if not I64_MIN <= v <= I64_MAX:
        raise IntOverflowError(f"integer out of 64-bit signed range: {int.__repr__(v)}")
    return v


# ---------------------------------------------------------------------------
# Sample record types


class Device(NamedTuple):
    block: bool
    major: int
    minor: int


class Benchmark(NamedTuple):
    """Two benchmarked runs: a measurement and a log per run.

    The app fields are polymorphic: int for raw outputs, float for
    averages, str for space-joined argv inputs.
    """

    first_app: Value
    first_log: str
    second_app: Value
    second_log: str


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


def field_count(fl: FieldList) -> int:
    return len(list_fields(fl))


# ---------------------------------------------------------------------------
# Schemas and the type registry


class FieldSpec(NamedTuple):
    name: str
    kind: Kind


class _SchemaValue(NamedTuple):
    type_id: str
    ctor: Callable[..., Any]
    destruct: Callable[[Any], FieldList]
    fields: tuple[FieldSpec, ...]


class RecordSchema(_SchemaValue):
    """The single source of truth for one record type.

    Everything schema-derived (builders, codecs, wire names) reads from
    this one entry; no type has a second field listing anywhere.
    """

    def __init__(self, *value):
        if any("\ud800" <= c <= "\udfff" for c in self.type_id):  # a lone surrogate
            raise ValueError(f"type id {self.type_id!r} has no UTF-8 image")
        seen = set()
        for f in self.fields:
            if not isinstance(f.kind, Kind):
                raise ValueError(f"field {f.name!r} of {self.type_id}: {f.kind!r} is not a Kind")
            if f.name in seen:  # its JSON object would repeat a key
                raise ValueError(f"field name {f.name!r} of {self.type_id} is repeated")
            if any("\ud800" <= c <= "\udfff" for c in f.name):  # a lone surrogate
                raise ValueError(f"field name {f.name!r} of {self.type_id} has no UTF-8 image")
            seen.add(f.name)
        #: The codecs staged from this schema by ``codecs``; not part of its value.
        self.codec_plan = {}
        #: Each field's exact type, derived from its kind; not part of its value.
        self.types = tuple(TYPE_OF[f.kind] for f in self.fields)

    #: The inherited ``_make``, which ``_replace`` calls, would skip ``__init__``.
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def arity(self) -> int:
        return len(self.fields)


REGISTRY: dict[str, RecordSchema] = {}


def _pair_destructor(names: tuple[str, ...]) -> Callable[[Any], FieldList]:
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

    ``cls.__match_args__``, which a dataclass or a NamedTuple sets, names
    the fields ``cls`` takes by position; in that order they give the field
    list.  Field i has kind ``kinds[i]`` and is named ``wire_names[i]`` on
    the wire (the attribute name when ``wire_names`` is empty).  The
    destructor reads the same fields, and the schema is stored in
    ``REGISTRY``.  A bad declaration, a keyword-only or InitVar dataclass
    field included, raises and changes nothing.
    """
    if type_id in REGISTRY:
        raise ValueError(f"record type {type_id!r} is already registered")
    names = getattr(cls, "__match_args__", None)
    if names is None:
        raise TypeError(f"{cls!r} has no __match_args__: make it a dataclass or a NamedTuple")
    dc_fields = getattr(cls, "__dataclass_fields__", {}).values()
    kw_only = [f.name for f in dc_fields if f.init and f.kw_only is True]
    if kw_only:
        raise ValueError(f"{cls.__name__} has keyword-only field(s) {kw_only}:"
                         " register takes positional fields only")
    # dataclasses' own mark of an InitVar, which a string annotation gets too
    init_vars = [f.name for f in dc_fields if f._field_type.name == "_FIELD_INITVAR"]
    if init_vars:
        raise ValueError(f"{cls.__name__} has InitVar field(s) {init_vars}:"
                         " __init__ takes them but no instance stores them")
    wires = wire_names or names
    specs = tuple(FieldSpec(w, k) for _, w, k in zip(names, wires, kinds, strict=True))
    schema = RecordSchema(type_id, cls, _pair_destructor(names), specs)
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
    except KeyError:
        raise UnknownTypeError(f"unregistered record type: {type_id!r}") from None


# ---------------------------------------------------------------------------
# Staged builders


class Builder:
    """A record constructor applied one field at a time.

    ``Builder(schema, supplied)`` has the values ``supplied`` (a tuple in
    field order) already applied, each by ``apply_field``.  They are kept as
    a persistent cons chain, newest first, with a count, so ``apply_field``
    adds one cell and copies nothing, and ``finish`` unrolls the chain once.
    Instances are never mutated; two builders are equal when their schemas
    and supplied values are.
    """

    __slots__ = ("schema", "_count", "_cells")

    def __init__(self, schema: RecordSchema, supplied: tuple = ()):
        self.schema, self._count, self._cells = schema, 0, ()
        for v in supplied:
            grown = apply_field(self, v)
            self._count, self._cells = grown._count, grown._cells

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
    if type(v) is not t or t is int and not I64_MIN <= v <= I64_MAX:
        want = schema.fields[done]
        got = kind_of(v)
        if got is not want.kind:
            raise FieldTypeError(
                f"field {want.name!r} of {schema.type_id} expects"
                f" {want.kind.value}, got {got.value} ({TYPE_OF[got].__repr__(v)})"
            )
        if got is Kind.INT:
            check_int_range(v)
    grown = object.__new__(Builder)
    grown.schema, grown._count, grown._cells = schema, done + 1, (v, b._cells)
    return grown


def finish(b: Builder) -> Any:
    missing = b.schema.arity - b._count
    if missing:
        raise ArityError(
            "finish",
            missing,
            f"finish: {b.schema.type_id} builder still needs {missing} field(s)",
        )
    return b.schema.ctor(*reversed(list_fields(b._cells)))
