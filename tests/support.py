"""Seeded random record generators, off-fast-path field values and the
reference implementations shared by the test modules."""

import dataclasses
import math
import operator
import re
import struct
from contextlib import contextmanager
from enum import IntEnum
from functools import reduce
from json.encoder import encode_basestring

from hypothesis import strategies as st

from recplug.codecs import (
    _b_bool,
    _b_int,
    _b_str,
    _e_str,
    p_bool,
    p_int,
    p_real,
    p_str,
)
from recplug.errors import (
    ArityError,
    CodecError,
    ContinuationShapeError,
    ExtraKeyError,
    FieldTypeError,
    IntOverflowError,
    MalformedJsonError,
    MissingKeyError,
    TrailingBytesError,
    TrailingInputError,
    WrongValueKindError,
)
from recplug.pipelines import depure_show, showa
from recplug.records import (
    I64_MAX,
    I64_MIN,
    REGISTRY,
    Benchmark,
    Builder,
    Device,
    Kind,
    _out_of_range,
    apply_field,
    finish,
    kind_of,
    list_fields,
    register,
)
from recplug.scott import cps_destructor


def field_list(*values):
    """Build a field list from values in order: field_list(1, 2) == (1, (2, ()))."""
    out = ()
    for v in reversed(values):
        out = (v, out)
    return out


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
# Field values of a kind whose exact type is not the kind's plain type: each
# misses the exact-type fast path of a per-field check and takes kind_of's.


class SubInt(int):
    pass


class SubStr(str):
    pass


class SubReal(float):
    pass


class Level(IntEnum):
    LOW = -1
    HIGH = 2**62


# Subclasses that spell every value "x": a wire form must still write the
# value of the base type.


class XInt(int):
    def __str__(self):
        return "x"

    __repr__ = __str__


class XStr(str):
    def __str__(self):
        return "x"

    __repr__ = __str__


class XReal(float):
    def __str__(self):
        return "x"

    __repr__ = __str__


subclass_values = st.one_of(
    st.integers(-3, 3).map(SubInt),
    st.sampled_from([I64_MIN - 1, I64_MAX + 1]).map(SubInt),
    st.text(max_size=3).map(SubStr),
    st.floats(allow_nan=False).map(SubReal),
    st.sampled_from(Level),
    st.integers(-3, 3).map(XInt),
    st.text(max_size=3).map(XStr),
    st.floats(allow_nan=False).map(XReal),
)
#: Values a builder field may be given: plain ones of every kind, the i64
#: edges and one past them, None (no field value at all) and subclass values.
builder_values = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([I64_MIN - 1, I64_MIN, I64_MAX, I64_MAX + 1]),
    st.text(max_size=3),
    st.floats(allow_nan=False),
    st.none(),
    subclass_values,
)


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
    return supplied + (ref_check_field(schema, done, v, FieldTypeError),)


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
# Reference JSON scanner: the executable definition of the named-field JSON
# language that codecs.from_named reads with the C decoder.  Strings are read
# one character per step, with the escapes the encoder writes spelled out by
# hand; like the encoder's output, a string holds no raw character below
# U+0020.

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
                raise MalformedJsonError(f"unsupported escape {text[i : i + 1 + len(e)]!r} at offset {i}")
            out.append(REF_ESCAPES[e])
            i += 1 + len(e)
        elif c < " ":
            raise MalformedJsonError(f"raw control character {c!r} at offset {i}")
        else:
            out.append(c)
            i += 1
    raise MalformedJsonError("unterminated string")


REF_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def ref_scan_value(text: str, i: int):
    if i >= len(text):
        raise MalformedJsonError("value expected at end of input")
    if text[i] == '"':
        return ref_scan_string(text, i)
    if text.startswith("true", i):
        return True, i + 4
    if text.startswith("false", i):
        return False, i + 5
    m = REF_NUMBER.match(text, i)
    if m:
        tok = m.group(0)
        if m.group(2) or m.group(3):
            v = float(tok)
            if v in (float("inf"), float("-inf")):
                raise MalformedJsonError(f"real literal overflows at offset {i}")
            return v, m.end()
        if tok == "-0":
            raise MalformedJsonError(f"non-canonical integer -0 at offset {i}")
        if len(tok) > len(str(I64_MIN)) or not I64_MIN <= (v := int(tok)) <= I64_MAX:
            raise MalformedJsonError(_out_of_range(tok))
        return v, m.end()
    raise MalformedJsonError(f"unrecognized value at offset {i}")


def ref_scan_named(text: str) -> dict:
    """A flat object of unique keys: no whitespace, strings with only the
    encoder's escapes, canonical in-range ints, true or false, and reals as
    any finite JSON literal with a fraction or an exponent."""
    if not text or text[0] != "{":
        raise MalformedJsonError("expected a flat JSON object")
    pairs: dict = {}
    i = 1
    if i < len(text) and text[i] == "}":
        i += 1
    else:
        while True:
            if i >= len(text) or text[i] != '"':
                raise MalformedJsonError(f"expected a key string at offset {i}")
            key, i = ref_scan_string(text, i)
            if i >= len(text) or text[i] != ":":
                raise MalformedJsonError(f"expected ':' at offset {i}")
            if key in pairs:
                raise MalformedJsonError(f"duplicate key {key!r}")
            pairs[key], i = ref_scan_value(text, i + 1)
            if i < len(text) and text[i] == ",":
                i += 1
                continue
            if i < len(text) and text[i] == "}":
                i += 1
                break
            raise MalformedJsonError(f"expected ',' or '}}' at offset {i}")
    if i != len(text):
        raise MalformedJsonError(f"trailing characters after object at offset {i}")
    return pairs


# ---------------------------------------------------------------------------
# Reference codecs, unstaged: every call builds its primitive table, its
# applicative chain and its show pipeline afresh, the form the per-schema
# codec plan replaced.  Every field value is checked with the isinstance
# kind_of and spelled by an isinstance chain, the forms the exact-type fast
# path and the by-kind spelling table replaced.


def _ref_per_field(table, schema, form):
    for f in schema.fields:
        if f.kind not in table:
            raise CodecError(f"{f.kind.value} field {f.name!r} has no {form} form")
    return [table[f.kind] for f in schema.fields]


# The reference ``pure`` and ``<*>``: nested closures over (value, cursor)
# pairs, the form the parser pipeline replaced, sharing none of its code.
def ref_pure(v):
    return lambda src, pos: (v, pos)


def nested_p_ap(pf, pa):
    def run(src, pos):
        step, pos = pf(src, pos)
        v, pos = pa(src, pos)
        return (apply_field(step, v) if isinstance(step, Builder) else step(v)), pos

    return run


def _ref_chain(table, schema, form):
    return reduce(nested_p_ap, _ref_per_field(table, schema, form), ref_pure(Builder(schema)))


def ref_parse_record(stream, schema):
    table = {Kind.BOOL: p_bool, Kind.INT: p_int, Kind.STR: p_str, Kind.REAL: p_real}
    if not schema.fields and list(stream) == [""]:  # the empty line of no fields
        stream = []
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


#: Each kind's base-type copy of a value; none of a subclass's overrides runs.
_REF_PLAIN = {
    Kind.BOOL: bool, Kind.INT: int.__int__, Kind.STR: str.__str__, Kind.REAL: float.__float__
}


def ref_echo(v, kind) -> str:
    """A plain value of kind ``kind`` as a diagnostic echoes it: a str as
    ref_excerpt does, an int in full up to 20 characters, else its first 20
    and its digit count, or past 20 digits its sign and bit length."""
    if kind is Kind.STR:
        return ref_excerpt(v)
    if kind is not Kind.INT:
        return repr(v)
    if abs(v) >= 10**20:
        return ("a negative" if v < 0 else "an") + f" int of {abs(v).bit_length()} bits"
    text = repr(v)
    return text if len(text) <= 20 else text[:20] + f"… ({len(text) - (v < 0)} digits)"


def ref_check_field(schema, i, v, error):
    """The plain copy of v, if field i of schema admits v: a value of
    another kind raises error, and an int outside i64 IntOverflowError."""
    want, got = schema.fields[i], kind_of(v)
    v = _REF_PLAIN[got](v)
    if got is not want.kind:
        raise error(
            f"field {want.name!r} of {schema.type_id} expects"
            f" {want.kind.value}, got {got.value} ({ref_echo(v, got)})"
        )
    if got is Kind.INT and not I64_MIN <= v <= I64_MAX:
        raise IntOverflowError("integer out of 64-bit signed range: " + ref_echo(v, got))
    return v


def _ref_json_value(v) -> str:
    """The JSON spelling of v's base-type value; no override of v's runs."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, str):
        return encode_basestring(v)
    if v != v or v in (float("inf"), float("-inf")):
        raise CodecError("non-finite reals have no JSON form")
    return float.__repr__(v)


def ref_encode_binary(record, schema):
    table = {Kind.BOOL: struct.Struct("<?").pack, Kind.INT: struct.Struct("<q").pack, Kind.STR: _e_str}
    encoders = _ref_per_field(table, schema, "binary")
    steps = [
        lambda v, i=i, e=e: e(ref_check_field(schema, i, v, WrongValueKindError))
        for i, e in enumerate(encoders)
    ]
    chunks, _ = reduce(showa, steps, depure_show(schema.destruct))(record)
    return b"".join(reversed(list_fields(chunks)))


def ref_to_named(record, schema):
    steps = [
        lambda v, i=i, f=f: encode_basestring(f.name) + ":"
        + _ref_json_value(ref_check_field(schema, i, v, WrongValueKindError))
        for i, f in enumerate(schema.fields)
    ]
    pairs, _ = reduce(showa, steps, depure_show(schema.destruct))(record)
    return "{" + ",".join(reversed(list_fields(pairs))) + "}"


def _ref_lexeme(schema, i, v) -> str:
    """The lexeme of v's base-type value; no override of v's runs."""
    spec, v = schema.fields[i], ref_check_field(schema, i, v, WrongValueKindError)
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise CodecError(f"field {spec.name!r} is not a finite real, not showable")
        return float.__repr__(v)
    v = str.__str__(v)
    if " " in v:
        raise CodecError(f"field {spec.name!r} contains a space, not showable")
    if re.search(r"[\x00-\x1f]", v):
        raise CodecError(f"field {spec.name!r} contains a control character, not showable")
    return v


def ref_show_line(record, schema):
    """The lexeme line of record, field by field, with no show pipeline."""
    values = list_fields(schema.destruct(record))
    return " ".join(_ref_lexeme(schema, i, v) for i, v in enumerate(values))


def ref_excerpt(text):
    """A diagnostic's echo of input: the text's repr, or the repr of its
    longest prefix that has at most 40 characters and a repr of at most 42
    UTF-8 bytes, then its length."""
    head = next(text[:n] for n in range(min(len(text), 40), -1, -1)
                if len(repr(text[:n]).encode()) <= 42)
    return repr(text) if head == text else repr(head) + f"… ({len(text)} characters)"


def ref_from_named(text, schema):
    pairs = ref_scan_named(text)
    extra = set(pairs) - {f.name for f in schema.fields}
    if extra:
        names = sorted(extra)
        listed = ", ".join(ref_excerpt(k) for k in names[:3])
        if len(names) > 3:  # the first three, then how many there are
            listed += f", … ({len(names)} keys)"
        raise ExtraKeyError(f"unexpected key(s): {listed}")
    b = Builder(schema)
    for i, f in enumerate(schema.fields):
        if f.name not in pairs:
            raise MissingKeyError(f"missing key {f.name!r}")
        b = apply_field(b, ref_check_field(schema, i, pairs[f.name], WrongValueKindError))
    return finish(b)
