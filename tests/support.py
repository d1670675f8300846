"""Seeded random record generators shared by the test modules."""

import dataclasses
import operator
import struct
from contextlib import contextmanager

from recplug.codecs import (
    _b_bool,
    _b_int,
    _b_str,
    _bin_chunk,
    _e_str,
    _named_pair,
    _scan_named,
    p_ap,
    p_bool,
    p_int,
    p_pure,
    p_real,
    p_str,
)
from recplug.errors import (
    ArityError,
    CodecError,
    ContinuationShapeError,
    ExtraKeyError,
    FieldTypeError,
    MalformedJsonError,
    MissingKeyError,
    TrailingBytesError,
    TrailingInputError,
    WrongValueKindError,
)
from recplug.pipelines import show_pipeline
from recplug.records import (
    REGISTRY,
    Benchmark,
    Builder,
    Device,
    Kind,
    apply_field,
    check_int_range,
    finish,
    kind_of,
    list_fields,
    register,
)
from recplug.scott import cps_destructor

# Headroom so the demo arithmetic (+100, +200, pairwise and three-way sums)
# cannot leave the 64-bit signed range.
SAFE_INT = 2**61


def random_device(rng, lo=-SAFE_INT, hi=SAFE_INT) -> Device:
    return Device(rng.random() < 0.5, rng.randint(lo, hi), rng.randint(lo, hi))


def random_text(rng, max_bytes=64) -> str:
    """Random unicode whose UTF-8 encoding fits in max_bytes."""
    budget = rng.randint(0, max_bytes)
    out = []
    size = 0
    while size < budget:
        cp = rng.randrange(0x110000)
        if 0xD800 <= cp <= 0xDFFF:  # surrogates are not encodable
            continue
        ch = chr(cp)
        n = len(ch.encode("utf-8"))
        if size + n > budget:
            break
        out.append(ch)
        size += n
    return "".join(out)


def random_benchmark(rng, app_lo=-(10**6), app_hi=10**6) -> Benchmark:
    return Benchmark(
        rng.randint(app_lo, app_hi),
        random_text(rng),
        rng.randint(app_lo, app_hi),
        random_text(rng),
    )


WIDE_KINDS = (Kind.BOOL, Kind.INT, Kind.STR)
# Field functions by kind; each keeps its value in kind and in i64 range.
WIDE_MAPS = {Kind.BOOL: operator.not_, Kind.INT: lambda x: x ^ 0x5A5A, Kind.STR: lambda s: s[::-1]}
WIDE_ZIPS = {Kind.BOOL: operator.xor, Kind.INT: operator.xor, Kind.STR: operator.add}


@contextmanager
def registered_wide(arity):
    """Register a type of arity fields cycling bool, int, str, and remove it
    on exit, so other tests see only the sample types."""
    names = [f"f{i}" for i in range(arity)]
    cls = dataclasses.make_dataclass(f"Wide{arity}", names, frozen=True)
    kinds = tuple(WIDE_KINDS[i % 3] for i in range(arity))
    schema = register(f"wide{arity}", cls, kinds)
    try:
        yield schema
    finally:
        del REGISTRY[schema.type_id]


def destructure_wide_cps(r):
    """The CPS destructor scott derives for the registered_wide type of r."""
    return cps_destructor(f"wide{len(dataclasses.fields(r))}")(r)


def random_wide(rng, schema):
    """A record of a registered_wide type; strings hold no spaces."""
    gen = {
        Kind.BOOL: lambda: rng.random() < 0.5,
        Kind.INT: lambda: rng.randint(-(2**63), 2**63 - 1),
        Kind.STR: lambda: "".join(rng.choices("abcxyz\"\\é中", k=rng.randint(0, 6))),
    }
    return schema.ctor(*(gen[f.kind]() for f in schema.fields))


# ---------------------------------------------------------------------------
# Reference CPS choppers: one nested continuation per step, the form the flat
# scott.CpsChain replaced.  Each feed repacks and slices the remaining fields.


def _ref_split(args, op):
    if len(args) < 2:
        raise ContinuationShapeError(
            2,
            len(args),
            f"{op}: state yields {len(args)} value(s), needs the accumulator"
            " plus at least one field",
        )
    return args[0], args[1], args[2:]


def ref_chop_cps(i, f):
    def chopped(k):
        def feed(*args):
            s, a, rest = _ref_split(args, "chop_cps")
            return k(f(s, a), *rest)

        return i(feed)

    return chopped


def _ref_check_nested(inner, op):
    if not callable(inner):
        raise ContinuationShapeError(
            2,
            1,
            f"{op}: state is not left-nested (inner state is {inner!r},"
            " not a function)",
        )


def ref_chop2_cps(i, f):
    def chopped(k):
        def feed(*args):
            sab, d, rest_b = _ref_split(args, "chop2_cps")
            _ref_check_nested(sab, "chop2_cps")

            def fused(tb):
                def inner(*inner_args):
                    s, a, rest_a = _ref_split(inner_args, "chop2_cps")
                    return tb(f(s, a, d), *rest_a)

                return sab(inner)

            return k(fused, *rest_b)

        return i(feed)

    return chopped


def ref_chop2_cps_via_chop(i, f):
    def step(sab, d):
        _ref_check_nested(sab, "chop2_cps_via_chop")

        def fused(tb):
            def inner(*inner_args):
                s, a, rest_a = _ref_split(inner_args, "chop2_cps_via_chop")
                return tb(f(s, a, d), *rest_a)

            return sab(inner)

        return fused

    return ref_chop_cps(i, step)


def ref_chop3_cps(i, f):
    def step(sab, d, g):
        _ref_check_nested(sab, "chop3_cps")

        def fused(tb):
            def inner(*inner_args):
                s, a, rest_a = _ref_split(inner_args, "chop3_cps")
                return tb(f(s, a, d, g), *rest_a)

            return sab(inner)

        return fused

    return ref_chop2_cps(i, step)


# ---------------------------------------------------------------------------
# Reference builder: the supplied values as a tuple in field order, copied on
# every step, the form records.Builder's cons chain replaced.


def ref_apply_field(schema, supplied: tuple, v) -> tuple:
    done = len(supplied)
    if done >= schema.arity:
        raise ArityError(
            "apply_field",
            0,
            f"apply_field: {schema.type_id} builder already has all"
            f" {schema.arity} fields",
        )
    want = schema.fields[done]
    got = kind_of(v)
    if got is not want.kind:
        raise FieldTypeError(
            f"field {want.name!r} of {schema.type_id} expects"
            f" {want.kind.value}, got {got.value} ({v!r})"
        )
    if got is Kind.INT:
        check_int_range(v)
    return supplied + (v,)


def ref_finish(schema, supplied: tuple):
    missing = schema.arity - len(supplied)
    if missing:
        raise ArityError(
            "finish",
            missing,
            f"finish: {schema.type_id} builder still needs {missing} field(s)",
        )
    return schema.ctor(*supplied)


# ---------------------------------------------------------------------------
# Reference JSON string scanner: one character per step, the form the
# run-at-a-time codecs._scan_string replaced, with the escapes the encoder
# writes spelled out by hand.  Like the encoder's output, a string holds no
# raw character below U+0020.

REF_ESCAPES = {'"': '"', "\\": "\\", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
REF_ESCAPES.update(
    (f"u{c:04x}", chr(c)) for c in range(0x20) if chr(c) not in "\b\f\n\r\t"
)


def ref_scan_string(text: str, i: int) -> tuple:
    i += 1  # opening quote
    out = []
    while i < len(text):
        c = text[i]
        if c == '"':
            return "".join(out), i + 1
        if c == "\\":
            if i + 1 >= len(text):
                raise MalformedJsonError(f"unterminated escape at offset {i}")
            e = text[i + 1 : i + 6] if text[i + 1] == "u" else text[i + 1]
            if e not in REF_ESCAPES:
                raise MalformedJsonError(f"unsupported escape \\{e} at offset {i}")
            out.append(REF_ESCAPES[e])
            i += 1 + len(e)
        elif c < " ":
            raise MalformedJsonError(f"raw control character {c!r} at offset {i}")
        else:
            out.append(c)
            i += 1
    raise MalformedJsonError("unterminated string")


# ---------------------------------------------------------------------------
# Reference codecs, unstaged: every call builds its primitive table, its
# applicative chain and its show pipeline afresh, the form the per-schema
# codec plan replaced.


def _ref_per_field(table, schema, form):
    for f in schema.fields:
        if f.kind not in table:
            raise CodecError(f"{f.kind.value} field {f.name!r} has no {form} form")
    return [table[f.kind] for f in schema.fields]


def _ref_chain(table, schema, form):
    parser = p_pure(Builder(schema))
    for primitive in _ref_per_field(table, schema, form):
        parser = p_ap(parser, primitive)
    return parser


def ref_parse_record(stream, schema):
    table = {Kind.BOOL: p_bool(), Kind.INT: p_int(), Kind.STR: p_str(), Kind.REAL: p_real()}
    built, cursor = _ref_chain(table, schema, "lexeme")(stream, 0)
    if cursor != len(stream):
        raise TrailingInputError(
            f"{len(stream) - cursor} unconsumed lexeme(s) at position {cursor}"
        )
    return finish(built)


def ref_decode_binary(image, schema):
    table = {Kind.BOOL: _b_bool, Kind.INT: _b_int, Kind.STR: _b_str}
    built, cursor = _ref_chain(table, schema, "binary")(image, 0)
    if cursor != len(image):
        raise TrailingBytesError(f"{len(image) - cursor} unconsumed byte(s) at offset {cursor}")
    return finish(built)


def ref_encode_binary(record, schema):
    table = {Kind.BOOL: struct.Struct("<?").pack, Kind.INT: struct.Struct("<q").pack, Kind.STR: _e_str}
    encoders = _ref_per_field(table, schema, "binary")
    pipeline = show_pipeline(schema.destruct, map(_bin_chunk, schema.fields, encoders))
    chunks, _ = pipeline(record)
    return b"".join(reversed(list_fields(chunks)))


def ref_to_named(record, schema):
    pairs, _ = show_pipeline(schema.destruct, map(_named_pair, schema.fields))(record)
    return "{" + ",".join(reversed(list_fields(pairs))) + "}"


def ref_from_named(text, schema):
    pairs = _scan_named(text)
    extra = set(pairs) - {f.name for f in schema.fields}
    if extra:
        raise ExtraKeyError(f"unexpected key(s): {', '.join(sorted(extra))}")
    b = Builder(schema)
    for f in schema.fields:
        if f.name not in pairs:
            raise MissingKeyError(f"missing key {f.name!r}")
        v = pairs[f.name]
        if kind_of(v) is not f.kind:
            raise WrongValueKindError(
                f"key {f.name!r} expects {f.kind.value}, got {kind_of(v).value}"
            )
        b = apply_field(b, v)
    return finish(b)
