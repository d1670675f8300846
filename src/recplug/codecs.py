"""Codecs generated from one field schema per record type.

Three wire forms share the schema registry entry: a space-separated lexeme
line (shown by a pair-track or a CPS show pipeline, parsed back by a
parser pipeline; a shown string holds no space and no control character),
a binary image, and a flat named-field JSON subset.  Encoders are chop
pipelines over the destructured record.  Decoders are ``chop.Pipeline``s
too: ``p_pure(Builder(schema))`` seeds the state ``(acc, src, cursor)``
and ``p_ap`` plugs each field's primitive parser after it.  A primitive
maps ``(src, pos)`` to a ``(value, cursor)`` pair or raises its typed
CodecError.  Pipelines depend on the schema alone, so each is staged on
first use into the schema's ``codec_plan``, and every later call runs that
same value.
Each per-field check tests the field's exact type (``schema.types``); only
a miss runs ``kind_of``, and a subclass value is copied to that type.

Wire formats, bit-exact:
  bool   1 byte, 0x00/0x01
  int    8 bytes, little-endian two's complement
  str    4-byte little-endian length, then UTF-8 bytes
Floats have no binary form (averages are display-only), nor has a string
with no UTF-8 image (a lone surrogate).  The JSON subset
is a flat object, keys in schema order on output, no whitespace, strings
escaped exactly as ``json.dumps(..., ensure_ascii=False)`` escapes them:
``\\"`` and ``\\\\``, ``\\b \\f \\n \\r \\t``, and ``\\u00xx`` (lowercase hex) for
the other characters below U+0020.  Input accepts exactly those escapes and
no raw character below U+0020, in JSON strings and in string lexemes alike.
One decoder reads it: the stdlib C decoder, after which each pair is
spelled again as to_named spells it and the line must equal that spelling.
Keys may come in any order and a real may be any finite JSON literal
(``1.50``, ``2E3``); any other difference is an error at its offset.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from functools import reduce
from json.encoder import encode_basestring
from typing import Callable, Sequence

from .chop import hom_wrap
from .errors import (
    CodecError,
    ExtraKeyError,
    InvalidBoolError,
    MalformedJsonError,
    MissingKeyError,
    ParseError,
    TrailingBytesError,
    TrailingInputError,
    TruncatedError,
    WrongValueKindError,
)
from .pipelines import depure_show, run_show, showa
from .records import (
    I64_MAX,
    I64_MIN,
    PLAIN_COPY,
    Builder,
    FieldSpec,
    Kind,
    RecordSchema,
    apply_field,
    check_int_range,
    finish,
    kind_of,
    list_fields,
)
from .scott import cps_form, depure_show_cps, run_show_cps, showa_cps

#: A primitive parser, (src, pos) -> (value, cursor), which raises a
#: CodecError when it fails; ``p_ap`` plugs it into a parser pipeline.
Parser = Callable[[Sequence, int], tuple]

#: The characters no string may hold raw on a text track.
CONTROL = re.compile(r"[\x00-\x1f]")
_I64_DIGITS = len(str(I64_MIN))  # a longer canonical literal is out of range


def _out_of_range(literal: str) -> str:
    """The out-of-range message; a literal longer than any i64 is cut short."""
    if len(literal) > _I64_DIGITS:
        literal = f"{literal[:_I64_DIGITS]}… ({len(literal.lstrip('-'))} digits)"
    return f"integer out of 64-bit signed range: {literal}"


def _per_field(table: dict, schema: RecordSchema, form: str) -> tuple:
    """``table``'s primitive for each field of ``schema``, in field order;
    the one place a wire form's kind support is decided."""
    for f in schema.fields:
        if f.kind not in table:
            raise CodecError(f"{f.kind.value} field {f.name!r} has no {form} form")
    return tuple(table[f.kind] for f in schema.fields)


def _staged(schema: RecordSchema, stage: Callable):
    """``stage(schema)``, kept in the schema's codec plan once built.  A
    stage that raises is not kept, so a missing form raises on every call."""
    staged = schema.codec_plan.get(stage)
    if staged is None:
        staged = schema.codec_plan[stage] = stage(schema)
    return staged


def _checked(spec: FieldSpec, t: type, v):
    """``v`` as an in-range value of the field's exact type ``t``; only a
    value of another type runs ``kind_of``, and a subclass value is copied."""
    if type(v) is t and (t is not int or I64_MIN <= v <= I64_MAX):
        return v
    got = kind_of(v)
    if got is not spec.kind:
        raise WrongValueKindError(
            f"field {spec.name!r} expects {spec.kind.value}, got {got.value}"
        )
    if got is Kind.INT:
        check_int_range(v)
    return PLAIN_COPY[t](v)


def p_pure(v):
    """The parser pipeline's seed: ``v`` as the accumulator, nothing read."""
    return lambda src, pos: (v, src, pos)


def _ap(state, pa: Parser) -> tuple:
    """One parser step: run ``pa`` at the cursor and apply its value to the
    accumulator (a Builder or a function)."""
    acc, src, pos = state
    v, pos = pa(src, pos)
    return (apply_field(acc, v) if isinstance(acc, Builder) else acc(v)), src, pos


def p_ap(pf, pa: Parser):
    """``pf <*> pa``: the parser pipeline ``pf`` with ``pa`` plugged after
    it.  Steps run left to right; the first error short-circuits."""
    return hom_wrap(_ap, pf, pa)


# ---------------------------------------------------------------------------
# Lexeme track


def lexemes(line: str) -> list[str]:
    """Tokenize on single spaces, the exact inverse of the show join."""
    return line.split(" ")


_INT_RE = re.compile(r"-?(0|[1-9][0-9]*)")


def _lexeme_at(src, pos, what: str) -> str:
    if pos >= len(src):
        raise ParseError(f"expected {what}, stream exhausted", pos)
    return src[pos]


def p_bool(src, pos):
    lex = _lexeme_at(src, pos, "a boolean")
    if lex == "False":
        return False, pos + 1
    if lex == "True":
        return True, pos + 1
    raise ParseError(f"expected 'False' or 'True', got {lex!r}", pos)


def p_int(src, pos):
    lex = _lexeme_at(src, pos, "an integer")
    if not _INT_RE.fullmatch(lex) or lex == "-0":
        raise ParseError(f"not a canonical integer: {lex!r}", pos)
    if len(lex) > _I64_DIGITS or not I64_MIN <= (v := int(lex)) <= I64_MAX:
        raise ParseError(_out_of_range(lex), pos)
    return v, pos + 1


def p_str(src, pos):
    lex = _lexeme_at(src, pos, "a string")
    if CONTROL.search(lex):
        raise ParseError(f"control character in string: {lex!r}", pos)
    return lex, pos + 1


def p_real(src, pos):
    lex = _lexeme_at(src, pos, "a real")
    try:
        v = float(lex)
    except ValueError:
        v = math.nan
    # Exactly what render_value prints for a finite float.
    if not math.isfinite(v) or repr(v) != lex:
        raise ParseError(f"not a canonical finite real: {lex!r}", pos)
    return v, pos + 1


_LEXEME_PRIMITIVES = {Kind.BOOL: p_bool, Kind.INT: p_int, Kind.STR: p_str, Kind.REAL: p_real}


def _lexeme_parse(schema: RecordSchema):
    parsers = _per_field(_LEXEME_PRIMITIVES, schema, "lexeme")
    return reduce(p_ap, parsers, p_pure(Builder(schema)))


def parse_record(stream: Sequence[str], schema: RecordSchema):
    """Strict applicative parse: the whole stream must be consumed.  A
    record with no fields shows as the empty line, one empty lexeme."""
    if not schema.fields and tuple(stream) == ("",):
        stream = ()
    built, _, cursor = _staged(schema, _lexeme_parse)(stream, 0)
    if cursor != len(stream):
        raise TrailingInputError(
            f"{len(stream) - cursor} unconsumed lexeme(s) at position {cursor}"
        )
    return finish(built)


def _shown(spec: FieldSpec, t: type):
    """The field's lexeme renderer: the lexeme of its checked value.
    Lexemes are space-separated and lines end at a newline, so a shown
    string holds no space and no control character; a real is finite."""

    def render(v):
        v = _checked(spec, t, v)
        if t is str and " " in v:
            raise CodecError(f"field {spec.name!r} contains a space, not showable")
        if t is str and CONTROL.search(v):
            raise CodecError(f"field {spec.name!r} contains a control character, not showable")
        if t is float and not math.isfinite(v):
            raise CodecError(f"field {spec.name!r} is not a finite real, not showable")
        return str(v)  # render_value's lexeme: v is a plain bool, int, str or float

    return render


def _lexeme_show(schema: RecordSchema):
    return reduce(showa, map(_shown, schema.fields, schema.types), depure_show(schema.destruct))


def _lexeme_show_cps(schema: RecordSchema):
    seed = depure_show_cps(cps_form(schema.destruct))
    return reduce(showa_cps, map(_shown, schema.fields, schema.types), seed)


def show_line(record, schema: RecordSchema, encoding: str) -> str:
    """The lexeme line parse_record reads back, shown by the pair-track
    pipeline, or by the CPS one when ``encoding`` is "scott"."""
    if encoding == "scott":
        return run_show_cps(_staged(schema, _lexeme_show_cps)(record))
    return run_show(_staged(schema, _lexeme_show)(record))


# ---------------------------------------------------------------------------
# Binary track


def _e_str(v) -> bytes:
    try:
        raw = v.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CodecError(
            f"string has no UTF-8 image: {exc.reason} at index {exc.start}"
        ) from None
    if len(raw) > 0xFFFFFFFF:
        raise CodecError(f"string of {len(raw)} bytes too long for a 4-byte length")
    return struct.pack("<I", len(raw)) + raw


_BINARY_ENCODERS = {
    Kind.BOOL: struct.Struct("<?").pack,  # 0x00 or 0x01
    Kind.INT: struct.Struct("<q").pack,
    Kind.STR: _e_str,
}


def _bin_chunk(spec: FieldSpec, t: type, encode):
    return lambda v: encode(_checked(spec, t, v))


def _binary_show(schema: RecordSchema):
    encoders = _per_field(_BINARY_ENCODERS, schema, "binary")
    chunks = map(_bin_chunk, schema.fields, schema.types, encoders)
    return reduce(showa, chunks, depure_show(schema.destruct))


def encode_binary(record, schema: RecordSchema) -> bytes:
    chunks, _ = _staged(schema, _binary_show)(record)
    return b"".join(reversed(list_fields(chunks)))


def _b_bool(data, pos):
    if pos + 1 > len(data):
        raise TruncatedError(f"need 1 byte at offset {pos}")
    b = data[pos]
    if b > 1:
        raise InvalidBoolError(f"invalid boolean byte 0x{b:02x} at offset {pos}")
    return bool(b), pos + 1


def _b_int(data, pos):
    if pos + 8 > len(data):
        raise TruncatedError(f"need 8 bytes at offset {pos}")
    return struct.unpack_from("<q", data, pos)[0], pos + 8


def _b_str(data, pos):
    if pos + 4 > len(data):
        raise TruncatedError(f"need a 4-byte length at offset {pos}")
    n = struct.unpack_from("<I", data, pos)[0]
    if pos + 4 + n > len(data):
        raise TruncatedError(f"need {n} string bytes at offset {pos + 4}")
    try:
        s = bytes(data[pos + 4 : pos + 4 + n]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 at offset {pos + 4}: {exc}") from None
    return s, pos + 4 + n


_BINARY_PRIMITIVES = {Kind.BOOL: _b_bool, Kind.INT: _b_int, Kind.STR: _b_str}


def _binary_parse(schema: RecordSchema):
    parsers = _per_field(_BINARY_PRIMITIVES, schema, "binary")
    return reduce(p_ap, parsers, p_pure(Builder(schema)))


def decode_binary(image: bytes, schema: RecordSchema):
    """Strict inverse of encode_binary: every byte must be consumed."""
    built, _, cursor = _staged(schema, _binary_parse)(image, 0)
    if cursor != len(image):
        raise TrailingBytesError(
            f"{len(image) - cursor} unconsumed byte(s) at offset {cursor}"
        )
    return finish(built)


# ---------------------------------------------------------------------------
# Named-field track (flat JSON subset)


def _json_real(v: float) -> str:
    if not math.isfinite(v):
        raise CodecError("non-finite reals have no JSON form")
    return repr(v)  # shortest round-trip decimal, always with '.' or exponent


class _RealLiteral(str):
    """A decoded JSON real, kept as its literal."""

    __slots__ = ()


#: to_named's spelling of a value of each exact type, and a decoded real's
#: spelling; no other decoded value (null, an array, an object) has one.
_SPELLINGS = {bool: lambda v: "true" if v else "false", int: str,
              str: encode_basestring, float: _json_real, _RealLiteral: str}


def _named_pair(spec: FieldSpec, t: type):
    key, spell = encode_basestring(spec.name) + ":", _SPELLINGS[t]
    return lambda v: key + spell(_checked(spec, t, v))


def _named_show(schema: RecordSchema):
    pairs = map(_named_pair, schema.fields, schema.types)
    return reduce(showa, pairs, depure_show(schema.destruct))


def to_named(record, schema: RecordSchema) -> str:
    """Emit a flat object, keys in schema order, no whitespace."""
    pairs, _ = _staged(schema, _named_show)(record)
    return "{" + ",".join(reversed(list_fields(pairs))) + "}"


def _no_constant(name: str):
    raise MalformedJsonError(f"not a finite real: {name}")


#: The stdlib C decoder: an object decodes to its (key, value) pairs in
#: order and a real to its literal; NaN and Infinity are rejected.
_DECODER = json.JSONDecoder(
    object_pairs_hook=list, parse_float=_RealLiteral, parse_constant=_no_constant
)


def _named_pairs(text: str) -> dict:
    """``text``'s pairs, if it is a flat object of unique keys spelled as
    to_named spells it, keys in any order, a real as any finite literal."""
    if text[:1] != "{":  # a line such as [["block",true]] would decode to pairs
        raise MalformedJsonError("expected a flat JSON object")
    try:
        pairs, _ = _DECODER.raw_decode(text)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"{exc.msg.removesuffix(' at')} at offset {exc.pos}") from None
    except ValueError:  # an int literal past int()'s digit limit
        raise MalformedJsonError("integer out of 64-bit signed range: too many digits") from None
    except RecursionError:  # the C decoder recurses per nesting level
        raise MalformedJsonError("nested too deeply for a flat JSON object") from None
    named, spelled = {}, []
    for k, v in pairs:
        t = type(v)
        spell = _SPELLINGS.get(t)
        if spell is None:  # null, an array or an object
            raise MalformedJsonError(f"key {k!r} holds no bool, int, str or real")
        if t is int and not I64_MIN <= v <= I64_MAX:
            raise MalformedJsonError(_out_of_range(str(v)))
        spelled.append(encode_basestring(k) + ":" + spell(v))
        if t is _RealLiteral and not math.isfinite(v := float(v)):
            raise MalformedJsonError(f"real at key {k!r} overflows")
        if k in named:
            raise MalformedJsonError(f"duplicate key {k!r}")
        named[k] = v
    canonical = "{" + ",".join(spelled) + "}"
    if canonical != text:
        i = len(os.path.commonprefix((canonical, text)))
        raise MalformedJsonError(f"not in canonical spelling at offset {i}")
    return named


def _wire_names(schema: RecordSchema) -> frozenset:
    return frozenset(f.name for f in schema.fields)


def from_named(text: str, schema: RecordSchema):
    """Rebuild a record by name; key order is free, extras are rejected."""
    pairs = _named_pairs(text)
    extra = pairs.keys() - _staged(schema, _wire_names)
    if extra:
        raise ExtraKeyError(f"unexpected key(s): {', '.join(map(repr, sorted(extra)))}")
    values = []  # no Builder: kinds, ranges and arity are all checked already
    for f, t in zip(schema.fields, schema.types):
        if f.name not in pairs:
            raise MissingKeyError(f"missing key {f.name!r}")
        v = pairs[f.name]
        if type(v) is not t:  # every decoded value is a plain bool, int, str or float
            raise WrongValueKindError(
                f"key {f.name!r} expects {f.kind.value}, got {kind_of(v).value}"
            )
        values.append(v)
    return schema.ctor(*values)
