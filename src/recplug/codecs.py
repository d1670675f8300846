"""Codecs generated from one field schema per record type.

Three wire forms share the schema registry entry: a space-separated lexeme
line (shown by a pair-track or a CPS show pipeline, parsed back by a
parser pipeline; a shown string holds no space and no control character),
a binary image, and a flat named-field JSON subset.  ``_show`` builds
every pair-track encoder: a show pipeline over the destructured record,
one piece per field.  ``_parse`` builds both decoders: its seed
``p_pure(Builder(schema))`` starts the state ``(acc, src, cursor)`` and
``p_ap`` plugs each field's primitive parser after it.  A primitive maps
``(src, pos)`` to a ``(value, cursor)`` pair or raises its typed
CodecError.  Pipelines depend on the schema alone, so each is staged on
first use into the schema's ``codec_plan``, and every later call runs that
same value; the lexeme CPS show is the one encoder ``_show`` does not build.
Each encoder, and ``from_named``, checks every value with ``check_field``,
and a diagnostic names at most three of a line's unexpected keys.

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
Keys may come in any order and a real may be any finite JSON number with a
fraction or an exponent (``1.50``, ``2E3``); any other difference is an
error at its offset.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from collections.abc import Callable, Sequence
from functools import partial, reduce
from json.encoder import encode_basestring

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
from .pipelines import _consumed, depure_show, run_show, showa
from .records import (
    I64_MAX,
    I64_MIN,
    _I64_DIGITS,
    Builder,
    Kind,
    RecordSchema,
    _echo,
    _out_of_range,
    apply_field,
    check_field,
    finish,
    list_fields,
)
from .scott import cps_form, depure_show_cps, run_show_cps, showa_cps

#: A primitive parser, (src, pos) -> (value, cursor), which raises a
#: CodecError when it fails; ``p_ap`` plugs it into a parser pipeline.
Parser = Callable[[Sequence, int], tuple]

#: The characters no string may hold raw on a text track.
CONTROL = re.compile(r"[\x00-\x1f]")


def _primitive(table: dict, field, form: str):
    """``table``'s primitive for ``field``; the one place a wire form's kind
    support is decided."""
    if field.kind not in table:
        raise CodecError(f"{field.kind.value} field {_echo(field.name)} has no {form} form")
    return table[field.kind]


def _staged(schema: RecordSchema, stage: Callable):
    """``stage(schema)``, kept in the schema's codec plan once built.  A
    stage that raises is not kept, so a missing form raises on every call."""
    staged = schema.codec_plan.get(stage)
    if staged is None:
        staged = schema.codec_plan[stage] = stage(schema)
    return staged


def p_pure(v):
    """The parser pipeline's seed: ``v`` as the accumulator, nothing read."""
    return lambda src, pos: (v, src, pos)


def _ap(state, pa: Parser) -> tuple:
    """One parser step: apply the value ``pa`` reads at the cursor to the Builder."""
    acc, src, pos = state
    v, pos = pa(src, pos)
    return apply_field(acc, v), src, pos


def p_ap(pf, pa: Parser):
    """``pf <*> pa``: the parser pipeline ``pf`` with ``pa`` plugged after
    it.  Steps run left to right; the first error short-circuits."""
    return hom_wrap(_ap, pf, pa)


def _show(schema: RecordSchema, piece: Callable):
    """Every pair-track encoder: the show pipeline of ``schema`` with
    ``piece(schema, i)`` rendering field i."""
    pieces = (piece(schema, i) for i in range(schema.arity))
    return reduce(showa, pieces, depure_show(schema.destruct))


def _parse(schema: RecordSchema, table: dict, form: str):
    """Every decoder: the parser pipeline of ``schema`` with ``table``'s
    primitive plugged in for each field."""
    primitives = (_primitive(table, f, form) for f in schema.fields)
    return reduce(p_ap, primitives, p_pure(Builder(schema)))


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
    raise ParseError(f"expected 'False' or 'True', got {_echo(lex)}", pos)


def p_int(src, pos):
    lex = _lexeme_at(src, pos, "an integer")
    if not _INT_RE.fullmatch(lex) or lex == "-0":
        raise ParseError(f"not a canonical integer: {_echo(lex)}", pos)
    if len(lex) > _I64_DIGITS or not I64_MIN <= (v := int(lex)) <= I64_MAX:
        raise ParseError(_out_of_range(lex), pos)
    return v, pos + 1


def p_str(src, pos):
    lex = _lexeme_at(src, pos, "a string")
    if CONTROL.search(lex):
        raise ParseError(f"control character in string: {_echo(lex)}", pos)
    return lex, pos + 1


def p_real(src, pos):
    lex = _lexeme_at(src, pos, "a real")
    try:
        v = float(lex)
    except ValueError:
        v = math.nan
    # Exactly what render_value prints for a finite float.
    if not math.isfinite(v) or repr(v) != lex:
        raise ParseError(f"not a canonical finite real: {_echo(lex)}", pos)
    return v, pos + 1


_LEXEME_PRIMITIVES = {Kind.BOOL: p_bool, Kind.INT: p_int, Kind.STR: p_str, Kind.REAL: p_real}
_LEXEME_PARSE = partial(_parse, table=_LEXEME_PRIMITIVES, form="lexeme")


def parse_record(stream: Sequence[str], schema: RecordSchema):
    """Strict applicative parse: the whole stream must be consumed, and an
    unconsumed tail counts as its space-separated pieces.  A record with no
    fields shows as the empty line, one empty lexeme."""
    if not schema.fields and tuple(stream) == ("",):
        stream = ()
    built, _, cursor = _staged(schema, _LEXEME_PARSE)(stream, 0)
    if cursor != len(stream):
        excess = sum(lex.count(" ") + 1 for lex in stream[cursor:])
        raise TrailingInputError(f"{excess} unconsumed lexeme(s) at position {cursor}")
    return finish(built)


def _shown(schema: RecordSchema, i: int):
    """Field ``i``'s lexeme renderer: the lexeme of its checked value, a real
    checked finite too.  Lexemes are space-separated and lines end at a newline,
    so a shown string holds no space and no control character."""
    t, name = schema.types[i], schema.fields[i].name

    def render(v):
        v = check_field(schema, i, v, WrongValueKindError)
        if t is str and " " in v:
            raise CodecError(f"field {_echo(name)} contains a space, not showable")
        if t is str and CONTROL.search(v):
            raise CodecError(f"field {_echo(name)} contains a control character, not showable")
        return str(v)  # render_value's lexeme: v is a plain bool, int, str or float

    return render


_LEXEME_SHOW = partial(_show, piece=_shown)


def _lexeme_show_cps(schema: RecordSchema):
    renderers = (_shown(schema, i) for i in range(schema.arity))
    return reduce(showa_cps, renderers, depure_show_cps(cps_form(schema.destruct)))


def show_line(record, schema: RecordSchema, encoding: str) -> str:
    """The lexeme line parse_record reads back, shown by the pair-track
    pipeline, or by the CPS one when ``encoding`` is "scott"."""
    if encoding == "scott":
        return run_show_cps(_staged(schema, _lexeme_show_cps)(record))
    return run_show(_staged(schema, _LEXEME_SHOW)(record))


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


def _bin_chunk(schema: RecordSchema, i: int):
    encode = _primitive(_BINARY_ENCODERS, schema.fields[i], "binary")
    return lambda v: encode(check_field(schema, i, v, WrongValueKindError))


_BINARY_SHOW = partial(_show, piece=_bin_chunk)


def encode_binary(record, schema: RecordSchema) -> bytes:
    chunks = _consumed("encode_binary", *_staged(schema, _BINARY_SHOW)(record))
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
_BINARY_PARSE = partial(_parse, table=_BINARY_PRIMITIVES, form="binary")


def decode_binary(image: bytes, schema: RecordSchema):
    """Strict inverse of encode_binary: every byte must be consumed."""
    built, _, cursor = _staged(schema, _BINARY_PARSE)(image, 0)
    if cursor != len(image):
        raise TrailingBytesError(
            f"{len(image) - cursor} unconsumed byte(s) at offset {cursor}"
        )
    return finish(built)


# ---------------------------------------------------------------------------
# Named-field track (flat JSON subset)


class _RealLiteral(str):
    """A decoded JSON real, kept as its literal."""

    __slots__ = ()


#: to_named's spelling of a value of each exact type, and a decoded real's
#: spelling; no other decoded value (null, an array, an object) has one.
_SPELLINGS = {bool: lambda v: "true" if v else "false", int: str,
              str: encode_basestring, float: repr, _RealLiteral: str}


def _named_pair(schema: RecordSchema, i: int):
    key, spell = encode_basestring(schema.fields[i].name) + ":", _SPELLINGS[schema.types[i]]
    return lambda v: key + spell(check_field(schema, i, v, WrongValueKindError))


_NAMED_SHOW = partial(_show, piece=_named_pair)


def to_named(record, schema: RecordSchema) -> str:
    """Emit a flat object, keys in schema order, no whitespace."""
    pairs = _consumed("to_named", *_staged(schema, _NAMED_SHOW)(record))
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
            raise MalformedJsonError(f"key {_echo(k)} holds no bool, int, str or real")
        if t is int and not I64_MIN <= v <= I64_MAX:
            raise MalformedJsonError(_out_of_range(str(v)))
        spelled.append(encode_basestring(k) + ":" + spell(v))
        if t is _RealLiteral and not math.isfinite(v := float(v)):
            raise MalformedJsonError(f"real at key {_echo(k)} overflows")
        if k in named:
            raise MalformedJsonError(f"duplicate key {_echo(k)}")
        named[k] = v
    canonical = "{" + ",".join(spelled) + "}"
    if canonical != text:
        i = len(os.path.commonprefix((canonical, text)))
        raise MalformedJsonError(f"not in canonical spelling at offset {i}")
    return named


def from_named(text: str, schema: RecordSchema):
    """Rebuild a record by name; key order is free, extras are rejected."""
    pairs = _named_pairs(text)
    extra = sorted(pairs.keys() - schema.wire_names)
    if extra:  # the first three, then how many there are
        more = f", … ({len(extra)} keys)" if len(extra) > 3 else ""
        raise ExtraKeyError(f"unexpected key(s): {', '.join(map(_echo, extra[:3]))}{more}")
    values = []  # no Builder: the arity is checked already
    for i, f in enumerate(schema.fields):
        if f.name not in pairs:
            raise MissingKeyError(f"missing key {_echo(f.name)}")
        values.append(check_field(schema, i, pairs[f.name], WrongValueKindError))
    return schema.ctor(*values)
