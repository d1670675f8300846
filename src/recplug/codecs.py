"""Codecs generated from one field schema per record type.

Three wire forms share the schema registry entry: a space-separated lexeme
line (the pretty-printer's output, parsed back by an applicative chain), a
binary image, and a flat named-field JSON subset.  Encoders are chop
pipelines over the destructured record; decoders are applicative chains
of primitive parsers over a cursor.  A parser maps ``(src, pos)`` to a
``(value, cursor)`` pair or raises its typed CodecError.  Chains and
pipelines depend on the schema alone, so each is staged on first use into
the schema's ``codec_plan``, and every later call runs that same value.

Wire formats, bit-exact:
  bool   1 byte, 0x00/0x01
  int    8 bytes, little-endian two's complement
  str    4-byte little-endian length, then UTF-8 bytes
Floats have no binary form (averages are display-only).  The JSON subset
is a flat object, keys in schema order on output, no whitespace, strings
escaped exactly as ``json.dumps(..., ensure_ascii=False)`` escapes them:
``\\"`` and ``\\\\``, ``\\b \\f \\n \\r \\t``, and ``\\u00xx`` (lowercase hex) for
the other characters below U+0020.  Input accepts exactly those escapes and
no raw character below U+0020, in JSON strings and in string lexemes alike.
The scanner (``_scan_named``) defines the accepted JSON language and gives
every error; the stdlib C decoder only fast-paths a line already in the
canonical form to_named writes (any key order), which the scanner would
read to the same pairs.
"""

from __future__ import annotations

import json
import math
import re
import struct
from json.encoder import encode_basestring
from typing import Callable, Sequence

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
from .pipelines import show_pipeline
from .records import (
    I64_MAX,
    I64_MIN,
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

#: (src, pos) -> (value, cursor); a parser that fails raises a CodecError.
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


def _checked(spec: FieldSpec, v):
    """``v``, checked to be an in-range value of the field's kind."""
    got = kind_of(v)
    if got is not spec.kind:
        raise WrongValueKindError(
            f"field {spec.name!r} expects {spec.kind.value}, got {got.value}"
        )
    if got is Kind.INT:
        check_int_range(v)
    return v


def p_pure(v) -> Parser:
    return lambda src, pos: (v, pos)


class ApChain:
    """An applicative chain as data: ``head`` then each of ``parsers``, run
    left to right in one loop.  Every parsed value is applied to the
    accumulated one (a Builder or a function); the first error raised
    short-circuits.  Instances are never mutated."""

    __slots__ = ("head", "parsers")

    def __init__(self, head: Parser, parsers: tuple):
        self.head = head
        self.parsers = parsers

    def __call__(self, src, pos) -> tuple:
        acc, pos = self.head(src, pos)
        for parser in self.parsers:
            v, pos = parser(src, pos)
            acc = apply_field(acc, v) if isinstance(acc, Builder) else acc(v)
        return acc, pos


def p_ap(pf: Parser, pa: Parser) -> Parser:
    """Run pf then pa left to right; apply pf's result (a Builder or a
    function) to pa's value.  The first error short-circuits."""
    if isinstance(pf, ApChain):
        return ApChain(pf.head, pf.parsers + (pa,))
    return ApChain(pf, (pa,))


def _chain(table: dict, form: str) -> Callable:
    """A decoder's stage: ``table``'s primitives after the empty Builder."""
    return lambda schema: ApChain(p_pure(Builder(schema)), _per_field(table, schema, form))


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


def p_bool() -> Parser:
    def run(src, pos):
        lex = _lexeme_at(src, pos, "a boolean")
        if lex == "False":
            return False, pos + 1
        if lex == "True":
            return True, pos + 1
        raise ParseError(f"expected 'False' or 'True', got {lex!r}", pos)

    return run


def p_int() -> Parser:
    def run(src, pos):
        lex = _lexeme_at(src, pos, "an integer")
        if not _INT_RE.fullmatch(lex) or lex == "-0":
            raise ParseError(f"not a canonical integer: {lex!r}", pos)
        if len(lex) > _I64_DIGITS or not I64_MIN <= (v := int(lex)) <= I64_MAX:
            raise ParseError(_out_of_range(lex), pos)
        return v, pos + 1

    return run


def p_str() -> Parser:
    def run(src, pos):
        lex = _lexeme_at(src, pos, "a string")
        if CONTROL.search(lex):
            raise ParseError(f"control character in string: {lex!r}", pos)
        return lex, pos + 1

    return run


def p_real() -> Parser:
    def run(src, pos):
        lex = _lexeme_at(src, pos, "a real")
        try:
            v = float(lex)
        except ValueError:
            v = math.nan
        # Exactly what render_value prints for a finite float.
        if not math.isfinite(v) or repr(v) != lex:
            raise ParseError(f"not a canonical finite real: {lex!r}", pos)
        return v, pos + 1

    return run


_LEXEME_PRIMITIVES = {
    Kind.BOOL: p_bool(),
    Kind.INT: p_int(),
    Kind.STR: p_str(),
    Kind.REAL: p_real(),
}
_lexeme_chain = _chain(_LEXEME_PRIMITIVES, "lexeme")


def parse_record(stream: Sequence[str], schema: RecordSchema):
    """Strict applicative parse: the whole stream must be consumed."""
    built, cursor = _staged(schema, _lexeme_chain)(stream, 0)
    if cursor != len(stream):
        raise TrailingInputError(
            f"{len(stream) - cursor} unconsumed lexeme(s) at position {cursor}"
        )
    return finish(built)


# ---------------------------------------------------------------------------
# Binary track


def _e_str(v) -> bytes:
    raw = v.encode("utf-8")
    if len(raw) > 0xFFFFFFFF:
        raise CodecError(f"string of {len(raw)} bytes too long for a 4-byte length")
    return struct.pack("<I", len(raw)) + raw


_BINARY_ENCODERS = {
    Kind.BOOL: struct.Struct("<?").pack,  # 0x00 or 0x01
    Kind.INT: struct.Struct("<q").pack,
    Kind.STR: _e_str,
}


def _bin_chunk(spec: FieldSpec, encode):
    return lambda v: encode(_checked(spec, v))


def _binary_show(schema: RecordSchema):
    encoders = _per_field(_BINARY_ENCODERS, schema, "binary")
    return show_pipeline(schema.destruct, map(_bin_chunk, schema.fields, encoders))


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
_binary_chain = _chain(_BINARY_PRIMITIVES, "binary")


def decode_binary(image: bytes, schema: RecordSchema):
    """Strict inverse of encode_binary: every byte must be consumed."""
    built, cursor = _staged(schema, _binary_chain)(image, 0)
    if cursor != len(image):
        raise TrailingBytesError(
            f"{len(image) - cursor} unconsumed byte(s) at offset {cursor}"
        )
    return finish(built)


# ---------------------------------------------------------------------------
# Named-field track (flat JSON subset)


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return encode_basestring(v)
    if v != v or v in (float("inf"), float("-inf")):
        raise CodecError("non-finite reals have no JSON form")
    return repr(v)  # shortest round-trip decimal, always with '.' or exponent


def _named_pair(spec: FieldSpec):
    key = encode_basestring(spec.name) + ":"
    return lambda v: key + _json_value(_checked(spec, v))


def _named_show(schema: RecordSchema):
    return show_pipeline(schema.destruct, map(_named_pair, schema.fields))


def to_named(record, schema: RecordSchema) -> str:
    """Emit a flat object, keys in schema order, no whitespace."""
    pairs, _ = _staged(schema, _named_show)(record)
    return "{" + ",".join(reversed(list_fields(pairs))) + "}"


_NUM_RE = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_PLAIN_RUN = re.compile(r'[^"\\\x00-\x1f]*')
#: Each escape the encoder writes, without its backslash, and what it stands
#: for: the inverse of encode_basestring on '"', '\\' and U+0000-U+001F.
_JSON_UNESCAPES = {
    encode_basestring(c)[2:-1]: c for c in map(chr, (*range(0x20), 0x22, 0x5C))
}


def _scan_string(text: str, i: int) -> tuple[str, int]:
    i += 1  # opening quote
    out = []
    while True:
        j = _PLAIN_RUN.match(text, i).end()
        out.append(text[i:j])
        if j == len(text):
            raise MalformedJsonError("unterminated string")
        if text[j] == '"':
            return "".join(out), j + 1
        if text[j] != "\\":
            raise MalformedJsonError(f"raw control character {text[j]!r} at offset {j}")
        if j + 1 == len(text):
            raise MalformedJsonError(f"unterminated escape at offset {j}")
        e = text[j + 1 : j + 6] if text[j + 1] == "u" else text[j + 1]
        if e not in _JSON_UNESCAPES:
            raise MalformedJsonError(f"unsupported escape \\{e} at offset {j}")
        out.append(_JSON_UNESCAPES[e])
        i = j + 1 + len(e)


def _scan_value(text: str, i: int):
    if i >= len(text):
        raise MalformedJsonError("value expected at end of input")
    if text[i] == '"':
        return _scan_string(text, i)
    if text.startswith("true", i):
        return True, i + 4
    if text.startswith("false", i):
        return False, i + 5
    m = _NUM_RE.match(text, i)
    if m:
        tok = m.group(0)
        if m.group(2) or m.group(3):
            v = float(tok)
            if v in (float("inf"), float("-inf")):
                raise MalformedJsonError(f"real literal overflows at offset {i}")
            return v, m.end()
        if tok == "-0":
            raise MalformedJsonError(f"non-canonical integer -0 at offset {i}")
        if len(tok) > _I64_DIGITS or not I64_MIN <= (v := int(tok)) <= I64_MAX:
            raise MalformedJsonError(_out_of_range(tok))
        return v, m.end()
    raise MalformedJsonError(f"unrecognized value at offset {i}")


def _scan_named(text: str) -> dict:
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
            key, i = _scan_string(text, i)
            if i >= len(text) or text[i] != ":":
                raise MalformedJsonError(f"expected ':' at offset {i}")
            if key in pairs:
                raise MalformedJsonError(f"duplicate key {key!r}")
            pairs[key], i = _scan_value(text, i + 1)
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


#: The stdlib C decoder; an object decodes to its (key, value) pairs in order.
_DECODER = json.JSONDecoder(object_pairs_hook=list)
#: to_named's spelling of a value of each exact type a field holds; no other
#: decoded value (null, an array, an object) has one.
_SPELLINGS = {bool: lambda v: "true" if v else "false", int: str,
              str: encode_basestring, float: repr}


def _named_pairs(text: str) -> dict:
    """``text``'s pairs: from the C decoder if it is a flat object of unique
    keys, each pair spelled as to_named spells it; else from the scanner."""
    if text[:1] != "{":
        return _scan_named(text)
    try:
        pairs, _ = _DECODER.raw_decode(text)
    except (ValueError, RecursionError):  # the C decoder recurses per nesting level
        return _scan_named(text)
    spelled = []
    for k, v in pairs:
        if type(v) not in _SPELLINGS or type(v) is int and not I64_MIN <= v <= I64_MAX:
            return _scan_named(text)
        spelled.append(encode_basestring(k) + ":" + _SPELLINGS[type(v)](v))
    named = dict(pairs)
    if len(named) != len(pairs) or "{" + ",".join(spelled) + "}" != text:
        return _scan_named(text)
    return named


def _wire_names(schema: RecordSchema) -> frozenset:
    return frozenset(f.name for f in schema.fields)


def from_named(text: str, schema: RecordSchema):
    """Rebuild a record by name; key order is free, extras are rejected."""
    pairs = _named_pairs(text)
    extra = pairs.keys() - _staged(schema, _wire_names)
    if extra:
        raise ExtraKeyError(f"unexpected key(s): {', '.join(sorted(extra))}")
    values = []  # no Builder: kinds, ranges and arity are all checked already
    for f in schema.fields:
        if f.name not in pairs:
            raise MissingKeyError(f"missing key {f.name!r}")
        v = pairs[f.name]
        if kind_of(v) is not f.kind:
            raise WrongValueKindError(
                f"key {f.name!r} expects {f.kind.value}, got {kind_of(v).value}"
            )
        values.append(v)
    return schema.ctor(*values)
