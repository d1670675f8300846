import json
import math
import random
import re
from functools import partial, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recplug.codecs import (
    _BINARY_PRIMITIVES,
    _LEXEME_PRIMITIVES,
    _e_str,
    decode_binary,
    encode_binary,
    from_named,
    lexemes,
    p_ap,
    p_bool,
    p_int,
    p_pure,
    p_str,
    parse_record,
    show_line,
    to_named,
)
from recplug.chop import Pipeline
from recplug.errors import (
    ArityError,
    CodecError,
    ContinuationShapeError,
    Error,
    ExtraKeyError,
    InvalidBoolError,
    MalformedJsonError,
    MissingKeyError,
    ParseError,
    TrailingBytesError,
    TrailingInputError,
    TruncatedError,
    FieldTypeError,
    IntOverflowError,
    WrongValueKindError,
)
from recplug.pipelines import render_value, run_show, show_record
from recplug.records import (
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
    schema_for,
)

from support import (
    Level,
    SubInt,
    SubReal,
    SubStr,
    XInt,
    XReal,
    XStr,
    builder_values,
    field_list,
    int64,
    nested_p_ap,
    random_device,
    rebuild,
    ref_check_field,
    ref_decode_binary,
    ref_encode_binary,
    ref_from_named,
    ref_parse_record,
    ref_pure,
    ref_show_line,
    ref_to_named,
    subclass_values,
)

DEVICE = schema_for("device")
BENCHMARK = schema_for("benchmark")
AVGS = schema_for("benchmark_avg")

# Frozen wire images, spelled out from the stated byte layout.
DEVICE_IMAGE_HEX = "00" + "13" + "00" * 7 + "01" + "00" * 7

# Text rich in the characters below U+0020 that JSON strings must escape.
control_text = st.text(st.one_of(st.characters(max_codepoint=0x1F), st.characters()), max_size=16)


def test_p_pure():
    assert p_pure(7)(["x"], 0) == (7, ["x"], 0)
    assert p_pure(7)([], 0) == (7, [], 0)


def test_p_bool():
    assert p_bool(["True"], 0) == (True, 1)
    assert p_bool(["False"], 0) == (False, 1)
    for src in (["yes"], []):
        with pytest.raises(ParseError):
            p_bool(src, 0)


def test_p_int():
    assert p_int(["19"], 0) == (19, 1)
    assert p_int(["-5"], 0) == (-5, 1)
    assert p_int(["0"], 0) == (0, 1)
    for bad in ("019", "+1", "-0", "1.5", "", "x"):
        with pytest.raises(ParseError):
            p_int([bad], 0)
    # 64-bit boundaries, and a literal past int()'s digit limit
    assert p_int([str(I64_MAX)], 0) == (I64_MAX, 1)
    assert p_int([str(I64_MIN)], 0) == (I64_MIN, 1)
    for bad in (str(I64_MAX + 1), "9223372036854775808", str(I64_MIN - 1), "9" * 5000):
        with pytest.raises(ParseError, match="out of 64-bit signed range"):
            p_int([bad], 0)


def test_p_str():
    assert p_str(["anything"], 0) == ("anything", 1)
    assert p_str([""], 0) == ("", 1)
    for src in ([], ["a\tb"], ["\x00"], ["x\x1f"]):
        with pytest.raises(ParseError):
            p_str(src, 0)


def test_p_ap_chain():
    parser = p_pure(Builder(DEVICE))
    for prim in (p_bool, p_int, p_int):
        parser = p_ap(parser, prim)
    stream = ["False", "19", "1"]
    value, src, cursor = parser(stream, 0)
    assert value.supplied == (False, 19, 1)
    assert src is stream
    assert cursor == 3


def test_p_ap_short_circuits():
    ran = []

    def second(src, pos):
        ran.append(pos)
        return 1, pos + 1

    failing = p_bool  # "nope" is not a boolean
    with pytest.raises(ParseError):
        p_ap(p_ap(p_pure(Builder(_throwaway([Kind.BOOL]))), failing), second)(["nope"], 0)
    assert ran == []


def test_p_ap_identity_step():
    streams = (["x"], ["False", "y"], [""])
    seed = p_pure(Builder(_throwaway([Kind.STR])))
    for src in streams:
        direct = p_str(src, 0)
        acc, rest, cursor = p_ap(seed, p_str)(src, 0)
        assert (acc.supplied, cursor) == ((direct[0],), direct[1])
        assert rest is src


def test_parse_record():
    assert parse_record(["False", "19", "1"], DEVICE) == EXAMPLE_DEVICE
    with pytest.raises(ParseError):
        parse_record([], DEVICE)
    with pytest.raises(TrailingInputError):
        parse_record(["False", "19", "1", "9"], DEVICE)
    for parse in (parse_record, ref_parse_record):  # an unconsumed piece counts as its lexemes
        with pytest.raises(TrailingInputError, match=r"^2 unconsumed lexeme\(s\) at position 1$"):
            parse(["True", "a b"], _throwaway([Kind.BOOL]))


def test_parse_record_reports_position():
    with pytest.raises(ParseError) as err:
        parse_record(["False", "x", "1"], DEVICE)
    assert err.value.position == 1


def test_every_encoder_refuses_a_destructor_with_an_extra_field():
    """A destructor that yields one field more than its specs: no encoder drops it."""
    plus = RecordSchema("device_plus", Device, lambda r: field_list(*r, 7), DEVICE.fields)
    encoders = [("run_show", partial(show_line, schema=plus, encoding="lisp")),
                ("encode_binary", partial(encode_binary, schema=plus)),
                ("to_named", partial(to_named, schema=plus))]
    for op, encode in encoders:
        with pytest.raises(ArityError) as info:
            encode(EXAMPLE_DEVICE)
        assert (info.value.op, info.value.remaining) == (op, 1)
        assert str(info.value) == f"{op}: unconsumed fields left"
    with pytest.raises(ContinuationShapeError):
        show_line(EXAMPLE_DEVICE, plus, "scott")


def test_binary_decode_errors():
    with pytest.raises(TruncatedError):
        decode_binary(bytes.fromhex(DEVICE_IMAGE_HEX)[:-1], DEVICE)
    with pytest.raises(TruncatedError):
        decode_binary(b"", DEVICE)
    with pytest.raises(InvalidBoolError):
        decode_binary(b"\x02" + bytes(16), DEVICE)
    with pytest.raises(TrailingBytesError):
        decode_binary(bytes.fromhex(DEVICE_IMAGE_HEX) + b"\x00", DEVICE)
    # one string byte declared, invalid UTF-8 inside
    bad = b"\x0a" + bytes(7) + b"\x01\x00\x00\x00" + b"\xff"
    bad += b"\x14" + bytes(7) + b"\x01\x00\x00\x00" + b"b"
    with pytest.raises(CodecError):
        decode_binary(bad, BENCHMARK)


def test_a_string_of_more_than_4_gib_is_refused():
    """A string's binary length is 4 bytes.  A str whose encode returns a
    range of 2**32 items reaches that check without allocating 4 GiB."""
    class Huge(str):
        def encode(self, *args):
            return range(2**32)

    with pytest.raises(CodecError) as info:
        _e_str(Huge())
    assert str(info.value) == "string of 4294967296 bytes too long for a 4-byte length"


def test_binary_rejects_real_fields():
    with pytest.raises(CodecError):
        encode_binary(Benchmark(1.0, "a", 2.0, "b"), AVGS)
    with pytest.raises(CodecError):
        decode_binary(b"", AVGS)


def test_a_missing_binary_form_raises_on_every_call_and_is_not_staged():
    """The first field with no binary form is named, on each call, and
    neither codec keeps an entry in the schema's plan."""
    before = dict(AVGS.codec_plan)
    for _ in range(2):
        for call in (lambda: encode_binary(Benchmark(1.0, "a", 2.0, "b"), AVGS),
                     lambda: decode_binary(b"", AVGS)):
            with pytest.raises(CodecError) as info:
                call()
            assert str(info.value) == "real field 'firstApp' has no binary form"
    assert AVGS.codec_plan == before


def test_a_second_call_reuses_each_staged_codec():
    """Each codec stages one pipeline on its first call, and a second call
    adds none and runs the same object.  from_named stages nothing: the
    schema carries its wire names."""
    schema = DEVICE._replace(type_id="device_staged")
    record = Device(True, 1, 2)
    image, line = encode_binary(record, DEVICE), show_line(record, DEVICE, "lisp")
    calls = (
        lambda: show_line(record, schema, "lisp"),
        lambda: show_line(record, schema, "scott"),
        lambda: encode_binary(record, schema),
        lambda: decode_binary(image, schema),
        lambda: parse_record(lexemes(line), schema),
        lambda: to_named(record, schema),
    )
    for staged, call in enumerate(calls, 1):
        call()
        first = dict(schema.codec_plan)
        call()
        assert len(first) == staged
        assert schema.codec_plan.keys() == first.keys()
        assert all(schema.codec_plan[k] is v for k, v in first.items())
    assert from_named(to_named(record, schema), schema) == record
    assert len(schema.codec_plan) == len(calls)


def test_encode_wrong_kind():
    with pytest.raises(WrongValueKindError):
        encode_binary(Benchmark(1.5, "a", 2, "b"), BENCHMARK)


def test_from_named_inverts_goldens():
    assert from_named('{"block":false,"major":19,"minor":1}', DEVICE) == EXAMPLE_DEVICE
    assert from_named(
        '{"firstApp":20.0,"firstLog":"ac","secondApp":30.0,"secondLog":"bd"}', AVGS
    ) == Benchmark(20.0, "ac", 30.0, "bd")


def test_from_named_key_order_free():
    assert from_named('{"minor":1,"block":false,"major":19}', DEVICE) == EXAMPLE_DEVICE


def test_from_named_rejections():
    with pytest.raises(MalformedJsonError):
        from_named("[1,2]", DEVICE)
    with pytest.raises(MalformedJsonError):
        from_named("", DEVICE)
    with pytest.raises(ExtraKeyError):
        from_named('{"block":false,"major":19,"minor":1,"patch":2}', DEVICE)
    with pytest.raises(MissingKeyError):
        from_named('{"block":false,"major":19}', DEVICE)
    with pytest.raises(WrongValueKindError):
        from_named('{"block":false,"major":19.0,"minor":1}', DEVICE)
    with pytest.raises(MalformedJsonError):
        from_named('{"block":false,"major":19,"minor":1}x', DEVICE)
    with pytest.raises(MalformedJsonError):
        from_named('{"block":false,"block":true,"major":19,"minor":1}', DEVICE)
    with pytest.raises(MalformedJsonError):
        from_named('{"block":false,"major":019,"minor":1}', DEVICE)
    with pytest.raises(MalformedJsonError):
        from_named('{"log":"\\q"}', schema_for("benchmark"))


_DEVICE_TAIL = ',"major":1,"minor":2}'
_LOGS = ',"secondApp":2,"secondLog":""}'


@pytest.mark.parametrize(
    "type_id,line,message",
    [
        pytest.param("device", '[["block",true]]', "expected a flat JSON object", id="not-an-object"),
        pytest.param("device", '{"block":true', "Expecting ',' delimiter at offset 13", id="decoder"),
        pytest.param("device", '{"block', "Unterminated string starting at offset 1", id="decoder-at"),
        pytest.param(
            "benchmark",
            '{"firstApp":1,"firstLog":"a\tb"' + _LOGS,
            "Invalid control character at offset 27",
            id="raw-control",
        ),
        pytest.param(
            "device",
            '{"block":true,"major":' + "9" * 5000 + ',"minor":2}',
            "integer out of 64-bit signed range: too many digits",
            id="digit-limit",
        ),
        pytest.param("device", '{"block":' + "[" * 100_000, "nested too deeply for a flat JSON object", id="deep"),
        pytest.param("device", '{"block":NaN' + _DEVICE_TAIL, "not a finite real: NaN", id="constant"),
        pytest.param("device", '{"block":null' + _DEVICE_TAIL, "key 'block' holds no bool, int, str or real", id="null"),
        pytest.param(
            "device",
            '{"block":true,"major":9223372036854775808,"minor":2}',
            "integer out of 64-bit signed range: 9223372036854775808",
            id="int-range",
        ),
        pytest.param(
            "device",
            '{"block":true,"major":-' + "9" * 29 + ',"minor":2}',
            "integer out of 64-bit signed range: -9999999999999999999… (29 digits)",
            id="int-range-cut",
        ),
        pytest.param(
            "benchmark_avg",
            '{"firstApp":-1e400,"firstLog":"a","secondApp":2.0,"secondLog":""}',
            "real at key 'firstApp' overflows",
            id="real-range",
        ),
        pytest.param("device", '{"block":true,"block":true' + _DEVICE_TAIL, "duplicate key 'block'", id="duplicate"),
        pytest.param(
            "device",
            '{"block":true, "major":1,"minor":2}',
            "not in canonical spelling at offset 14",
            id="whitespace",
        ),
        pytest.param(
            "benchmark",
            '{"firstApp":12345678,"firstLog":"\\/"' + _LOGS,
            "not in canonical spelling at offset 33",
            id="escape",
        ),
    ],
)
def test_from_named_diagnostics(type_id, line, message):
    """One row per MalformedJsonError message form, with its exact text."""
    with pytest.raises(MalformedJsonError) as err:
        from_named(line, schema_for(type_id))
    assert str(err.value) == message


def test_named_escapes():
    tricky = Benchmark(1, 'say "hi"', 2, "back\\slash")
    text = to_named(tricky, BENCHMARK)
    assert '\\"hi\\"' in text and "back\\\\slash" in text
    assert from_named(text, BENCHMARK) == tricky


finite_reals = st.floats(allow_nan=False, allow_infinity=False)


@given(finite_reals, finite_reals)
def test_lexeme_round_trip_reals(x, y):
    b = Benchmark(x, "a", y, "b")
    shown = run_show(show_record("benchmark_avg")(b))
    assert shown == f"{x!r} a {y!r} b"
    back = parse_record(lexemes(shown), AVGS)
    assert back == b
    assert [repr(v) for v in (back.first_app, back.second_app)] == [repr(x), repr(y)]


@pytest.mark.parametrize(
    "lexeme", ["inf", "-inf", "nan", "1e400", "2", "2.50", "+2.5", "1e5", "1_0.5", "\t2.5", "", "x"]
)
def test_lexeme_rejects_non_canonical_reals(lexeme):
    with pytest.raises(ParseError) as err:
        parse_record(lexemes(f"2.5 a {lexeme} b"), AVGS)
    assert err.value.position == 2


def test_named_key_permutation_random():
    # device pairs are comma-free, so the object can be resplit and shuffled
    rng = random.Random(43)
    for _ in range(50):
        d = random_device(rng)
        parts = to_named(d, DEVICE)[1:-1].split(",")
        rng.shuffle(parts)
        assert from_named("{" + ",".join(parts) + "}", DEVICE) == d


def test_one_schema_entry_per_type():
    # Both codec directions read the same registry entry; no second
    # field listing exists anywhere.
    assert len(REGISTRY) == 4
    for type_id, schema in REGISTRY.items():
        assert schema_for(type_id) is schema
        assert len({f.name for f in schema.fields}) == schema.arity


def _projected(pipeline):
    """A parser pipeline as a (value, cursor) parser: ``src``, which every
    step hands on unchanged, projected out."""

    def run(src, pos):
        acc, rest, cursor = pipeline(src, pos)
        assert rest is src
        return acc, cursor

    return run


def chains(primitives, kinds):
    """The parser pipeline over kinds, and the nested reference chain."""
    specs = tuple(FieldSpec(f"f{i}", k) for i, k in enumerate(kinds))
    schema = RecordSchema("chain", tuple, None, specs)
    parsers = [primitives[k] for k in kinds]
    flat = reduce(p_ap, parsers, p_pure(Builder(schema)))
    assert isinstance(flat, Pipeline) == bool(kinds)
    return _projected(flat), reduce(nested_p_ap, parsers, ref_pure(Builder(schema)))


def _run(parser, src, start):
    """parser's (value, cursor), or the class, message and lexeme position
    of the error it raised."""
    try:
        return parser(src, start)
    except CodecError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def same_result(flat, nested, src, start):
    assert _run(flat, src, start) == _run(nested, src, start)


field_kinds = st.lists(st.sampled_from([Kind.BOOL, Kind.INT, Kind.STR]), max_size=6)
lexeme_pool = ["True", "False", "0", "19", "-5", "019", "-0", "x", "", str(I64_MAX), str(I64_MAX + 1)]
binary_pieces = [b"\x00", b"\x01", b"\x02", b"\x01\x00\x00\x00a", b"\x09\x00\x00\x00", b"\xff" * 8]


@given(
    field_kinds,
    st.lists(st.one_of(st.sampled_from(lexeme_pool), st.text(max_size=3)), max_size=8),
    st.integers(0, 3),
)
def test_flat_lexeme_chain_equals_nested(kinds, stream, start):
    flat, nested = chains(_LEXEME_PRIMITIVES, kinds)
    same_result(flat, nested, stream, start)


@given(
    field_kinds,
    st.one_of(st.binary(max_size=24), st.lists(st.sampled_from(binary_pieces), max_size=8).map(b"".join)),
    st.integers(0, 3),
)
def test_flat_binary_chain_equals_nested(kinds, image, start):
    flat, nested = chains(_BINARY_PRIMITIVES, kinds)
    same_result(flat, nested, image, start)


@given(int64, control_text, int64, control_text)
def test_to_named_matches_json_dumps(a, log_a, b, log_b):
    record = Benchmark(a, log_a, b, log_b)
    values = dict(zip(("firstApp", "firstLog", "secondApp", "secondLog"), (a, log_a, b, log_b)))
    text = to_named(record, BENCHMARK)
    assert text == json.dumps(values, separators=(",", ":"), ensure_ascii=False)
    assert from_named(text, BENCHMARK) == record


def test_from_named_accepts_exactly_the_written_escapes():
    for c in map(chr, range(0x20)):
        text = to_named(Benchmark(1, c, 2, ""), BENCHMARK)
        assert not any(ch < " " for ch in text)
        assert from_named(text, BENCHMARK).first_log == c
    for escape in ("\\u0008", "\\u000a", "\\u001F", "\\u0041", "\\/", "\\u00"):
        with pytest.raises(MalformedJsonError, match=r"not in canonical spelling|Invalid \\uXXXX escape"):
            from_named(f'{{"firstApp":1,"firstLog":"{escape}","secondApp":2,"secondLog":""}}', BENCHMARK)


# ---------------------------------------------------------------------------
# The staged codecs against the unstaged reference in support.py.

field_values = {
    Kind.BOOL: st.booleans(),
    Kind.INT: st.one_of(int64, st.integers(), st.sampled_from([I64_MIN - 1, I64_MAX + 1])),
    Kind.STR: st.text(max_size=8),
    Kind.REAL: st.floats(),
}
# Subclass values and IntEnum members take the plain_value path of check_field.
any_value = st.one_of(*field_values.values(), subclass_values)


def _throwaway(kinds):
    """A schema outside the registry, with a fresh (empty) codec plan."""
    specs = tuple(FieldSpec(f"f{i}", k) for i, k in enumerate(kinds))
    return RecordSchema("throwaway", lambda *vs: vs, lambda r: field_list(*r), specs)


schemas = st.one_of(
    st.sampled_from(sorted(REGISTRY)).map(schema_for),
    st.lists(st.sampled_from(list(Kind)), max_size=5).map(_throwaway),
)
wire_keys = st.sampled_from(
    ["block", "major", "minor", "firstApp", "firstLog", "secondApp", "secondLog", "f0", "f1", "x"]
)
named_text = st.one_of(
    st.text(max_size=24),
    st.dictionaries(wire_keys, any_value, max_size=5).map(lambda d: json.dumps(d, separators=(",", ":"))),
)
lexeme_piece = st.one_of(st.sampled_from(lexeme_pool + ["2.5", "-0.0", "1e+16", "a\tb", "9" * 30]), st.text(max_size=3))
lexeme_stream = st.lists(lexeme_piece, max_size=6)
image_bytes = st.one_of(
    st.binary(max_size=32), st.lists(st.sampled_from(binary_pieces), max_size=8).map(b"".join)
)


#: show_line on each track, as a (record, schema) encoder.
SHOW_LINES = (partial(show_line, encoding="lisp"), partial(show_line, encoding="scott"))


def _shown_line_parses_back(values, schema):
    """ref_show_line's line, if it has one, parses back to the record of the
    values' plain copies."""
    done, line = _outcome(ref_show_line, schema.ctor(*values), schema)
    if done == "ok":
        plain = [ref_check_field(schema, i, v, WrongValueKindError) for i, v in enumerate(values)]
        assert repr(parse_record(lexemes(line), schema)) == repr(schema.ctor(*plain))


def _outcome(codec, arg, schema):
    """codec's value, or its error class and message.  The C decoder and the
    reference scanner word their MalformedJsonErrors differently, so only
    that class is kept for them."""
    try:
        return "ok", codec(arg, schema)
    except Error as exc:
        return type(exc), None if isinstance(exc, MalformedJsonError) else str(exc)


@given(st.data(), schemas, named_text, lexeme_stream, image_bytes)
def test_staged_codecs_match_unstaged_reference(data, schema, text, stream, image):
    """Each entry point, run twice on one schema, gives the reference's
    value, spelled the same by repr, or its error; the second run reads the
    plan the first one staged, and a form the schema lacks raises again."""
    values = [data.draw(st.one_of(field_values[f.kind], any_value)) for f in schema.fields]
    record = schema.ctor(*values)
    cases = [
        (from_named, ref_from_named, text),
        (to_named, ref_to_named, record),
        (encode_binary, ref_encode_binary, record),
        (decode_binary, ref_decode_binary, image),
        (parse_record, ref_parse_record, stream),
        (parse_record, ref_parse_record, [render_value(v) for v in values]),
        *((show, ref_show_line, record) for show in SHOW_LINES),
    ]
    # The record's own images, so that decoding also succeeds.
    for encode, decode, ref_decode in (
        (ref_to_named, from_named, ref_from_named),
        (ref_encode_binary, decode_binary, ref_decode_binary),
    ):
        done, out = _outcome(encode, record, schema)
        if done == "ok":
            cases.append((decode, ref_decode, out))
    for staged, reference, arg in cases:
        want = repr(_outcome(reference, arg, schema))
        assert repr(_outcome(staged, arg, schema)) == want
        assert repr(_outcome(staged, arg, schema)) == want
    _shown_line_parses_back(values, schema)


@given(st.sampled_from([*map(schema_for, sorted(REGISTRY)), _throwaway([])]), st.data())
def test_a_split_no_further_than_the_record_parses_as_the_full_split(schema, data):
    """A line of a spelled value or a piece per field, then more pieces,
    split at most arity times (as parse splits it), gives the record, or
    the error class and message, of its split at every space."""
    fields = [data.draw(st.one_of(field_values[f.kind].map(str), lexeme_piece)) for f in schema.fields]
    line = " ".join(fields + data.draw(lexeme_stream))
    bounded = _outcome(parse_record, line.split(" ", schema.arity), schema)
    assert repr(bounded) == repr(_outcome(parse_record, lexemes(line), schema))


# Per kind: values that miss check_field's exact-type test, in and out of kind.
off_fast_path = {
    Kind.BOOL: st.integers(0, 1),
    Kind.INT: st.one_of(
        st.sampled_from([I64_MIN - 1, I64_MAX + 1, *Level]),
        st.booleans(),
        st.sampled_from([I64_MIN - 1, -1, I64_MAX + 1]).map(SubInt),
        st.integers(-3, 3).map(XInt),
    ),
    Kind.STR: st.one_of(st.text(max_size=3).map(SubStr), st.text(max_size=3).map(XStr)),
    Kind.REAL: st.one_of(st.floats().map(SubReal), st.floats().map(XReal)),
}


@given(st.data(), schemas)
def test_encoders_match_reference_off_the_fast_path(data, schema):
    """Every field holds a value of its kind or one that misses the
    exact-type test; the encoders give the reference's output or error."""
    values = [data.draw(st.one_of(field_values[f.kind], off_fast_path[f.kind])) for f in schema.fields]
    record = schema.ctor(*values)
    encoders = [(to_named, ref_to_named), (encode_binary, ref_encode_binary)]
    for staged, reference in encoders + [(show, ref_show_line) for show in SHOW_LINES]:
        assert _outcome(staged, record, schema) == _outcome(reference, record, schema)
    _shown_line_parses_back(values, schema)


@pytest.mark.parametrize(
    "schema,values",
    [
        (DEVICE, (True, XInt(19), Level.HIGH)),
        (BENCHMARK, (XInt(-7), XStr('a"b\\é'), SubInt(2), XStr(""))),
        (AVGS, (XReal(2.5), XStr("log"), XReal(-1e-300), "c")),
    ],
)
def test_subclass_values_are_written_as_their_base_type(schema, values):
    """Field values whose type spells them "x" are written as the values of
    their base types: to_named's line loads to them, and show's line parses
    back to the record."""
    record = schema.ctor(*values)
    assert json.loads(to_named(record, schema)) == {f.name: v for f, v in zip(schema.fields, values)}
    line = run_show(show_record(schema.type_id)(record))
    assert show_line(record, schema, "lisp") == show_line(record, schema, "scott") == line
    assert parse_record(lexemes(line), schema) == record


# ---------------------------------------------------------------------------
# from_named against the reference scanner, on lines near its language.

# Values json.dumps spells, in and out of every field's kind.
_json_near_values = st.one_of(
    st.sampled_from([I64_MIN, I64_MAX, I64_MIN - 1, I64_MAX + 1, 2**64, 0, -1]),
    st.floats(),  # NaN and Infinity included
    st.text(st.one_of(st.characters(), st.sampled_from(["\ud800", "\udfff", "/", "\x1f", '"', "\\"])), max_size=6),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.booleans(), max_size=1),
)
# Spellings json.dumps never writes: non-canonical numbers, escapes the
# encoder does not write, raw control characters and lone surrogates.
_RAW_NEAR = (
    ["-0", "1.50", "1e5", "1E5", "-0.0", "01", "1.", "NaN", "Infinity", "-Infinity", "null", "[1]", "{}", "[" * 50]
    + ['"\\/"', '"\\u0041"', '"\\u001F"', '"\\u001f"', '"a\tb"', '"\x00"', '"\ud800"', '"\\ud800"', "9" * 30]
    + ["1e400", "-1e400"]
)
_raw_near_values = st.sampled_from(_RAW_NEAR)
# JSON-significant pieces that one positional edit inserts or writes over.
_MUTATION_PIECES = ['"', "\\", "{", "}", "[", ",", ":", " ", "A", "\\/", "\\ud800", "\x1f", "-0", "1.50", "9" * 25]


# Values each field kind admits.
_admitted = {Kind.BOOL: st.booleans(), Kind.INT: int64, Kind.STR: st.text(max_size=8), Kind.REAL: finite_reals}


@st.composite
def near_miss_lines(draw, schema):
    """A JSON object line for ``schema`` in json.dumps spellings, with
    ensure_ascii on or off, and at most one near miss: in a value, in the
    separators, in the keys, at the line's end, or one piece inserted,
    replaced or deleted at any offset."""
    miss = draw(st.sampled_from([None, "value", "separators", "drop", "repeat", "extra", "escaped", "end", "mutate"]))
    ensure_ascii = draw(st.booleans())
    item_sep, key_sep = (", ", ": ") if miss == "separators" else (",", ":")

    def spell(v):
        return json.dumps(v, ensure_ascii=ensure_ascii, separators=(item_sep, key_sep))

    pairs = [[spell(f.name), spell(draw(_admitted[f.kind]))] for f in draw(st.permutations(schema.fields))]
    if miss == "value":
        pairs[draw(st.sampled_from(range(len(pairs))))][1] = draw(
            st.one_of(_json_near_values.map(spell), _raw_near_values)
        )
    elif miss == "drop":
        pairs.pop()
    elif miss == "repeat":
        pairs.append(list(pairs[0]))
    elif miss == "extra":
        pairs.append([spell("x"), spell(draw(_json_near_values))])
    elif miss == "escaped":
        name = json.loads(pairs[0][0])
        pairs[0][0] = '"\\u%04x%s"' % (ord(name[0]), name[1:])
    end = draw(st.sampled_from(["\r", "\n", " "])) if miss == "end" else ""
    line = "{" + item_sep.join(k + key_sep + v for k, v in pairs) + "}" + end
    if miss == "mutate":
        i, piece = draw(st.integers(0, len(line))), draw(st.sampled_from(["", *_MUTATION_PIECES]))
        line = line[:i] + piece + line[i + draw(st.integers(0, 1)) :]  # "" with 1 deletes
    return line


# Whole-line near misses of a canonical line.
_LINE_MISSES = [
    pytest.param(lambda line: '[["block",true]]', id="array-of-pairs"),
    pytest.param(lambda line: " " + line, id="leading-space"),
    pytest.param(lambda line: "\ufeff" + line, id="leading-bom"),
    pytest.param(lambda line: "{}", id="empty-object"),
    pytest.param(lambda line: line + "\r", id="trailing-cr"),
]


@pytest.mark.parametrize("miss", [*_RAW_NEAR, *_LINE_MISSES])
@pytest.mark.parametrize("type_id", sorted(REGISTRY))
def test_non_finite_reals_fall_back_to_the_scanner(type_id, miss):
    """Each raw near-miss literal, in every field, and each whole-line near
    miss gets ref_from_named's outcome; a non-finite real, null, an array or
    an object is rejected in any field."""
    schema = schema_for(type_id)
    admitted = {Kind.BOOL: "true", Kind.INT: "1", Kind.STR: '"a"', Kind.REAL: "2.5"}
    spelled = [admitted[f.kind] for f in schema.fields]

    def line(values):
        return "{" + ",".join(f'"{f.name}":{v}' for f, v in zip(schema.fields, values)) + "}"

    if callable(miss):
        texts = [miss(line(spelled))]
    else:
        texts = [line(spelled[:i] + [miss] + spelled[i + 1 :]) for i in range(schema.arity)]
    for text in texts:
        got, want = _outcome(from_named, text, schema), _outcome(ref_from_named, text, schema)
        assert repr(got) == repr(want)
        if miss in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "null", "[1]", "{}"):
            assert want[0] is MalformedJsonError


@settings(max_examples=400)
@given(st.data(), st.sampled_from(sorted(REGISTRY)).map(schema_for))
def test_near_miss_lines_match_the_reference(data, schema):
    """from_named gives ref_from_named's record, spelled the same by repr
    (so -0.0 stays -0.0), or its error, on every line."""
    text = data.draw(near_miss_lines(schema))
    got, want = _outcome(from_named, text, schema), _outcome(ref_from_named, text, schema)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("encoding", ["lisp", "scott"])
@pytest.mark.parametrize("real", [math.inf, -math.inf, math.nan])
def test_a_non_finite_real_is_not_showable(encoding, real):
    record = Benchmark(1.5, "a", real, "b")
    message = f"field 'secondApp' of benchmark_avg expects a finite real, got {real!r}"
    with pytest.raises(WrongValueKindError, match=f"^{re.escape(message)}$"):
        show_line(record, schema_for("benchmark_avg"), encoding)


@pytest.mark.parametrize("real", [math.inf, -math.inf, math.nan])
def test_a_non_finite_real_has_no_json_form(real):
    record = Benchmark(real, "a", 1.5, "b")
    message = f"field 'firstApp' of benchmark_avg expects a finite real, got {real!r}"
    with pytest.raises(WrongValueKindError, match=f"^{re.escape(message)}$"):
        to_named(record, schema_for("benchmark_avg"))


@pytest.mark.parametrize("width", [39, 40, 41])
def test_an_echoed_key_is_cut_past_40_characters(width):
    key = "k" * width
    with pytest.raises(ExtraKeyError) as info:
        from_named('{"block":true,"major":1,"minor":2,"' + key + '":1}', schema_for("device"))
    shown = repr(key) if width <= 40 else f"{key[:40]!r}… ({width} characters)"
    assert str(info.value) == f"unexpected key(s): {shown}"


def test_an_echo_counts_a_character_by_its_repr():
    """A key of 40 U+001F characters shows as its first 10, whose repr has
    42 characters, and not as a repr of 162."""
    key = "\x1f" * 40
    with pytest.raises(ExtraKeyError) as info:
        from_named('{"block":true,"major":1,"minor":2,' + json.dumps(key) + ":1}", DEVICE)
    assert str(info.value) == f"unexpected key(s): {key[:10]!r}… (40 characters)"


def test_an_echo_counts_a_character_by_its_utf8_bytes():
    """A key of 1,000 U+1D11E characters shows as its first 10, whose repr
    has 42 UTF-8 bytes, and not as a repr of 40 characters and 162 bytes."""
    key = "\U0001D11E" * 1000
    with pytest.raises(ExtraKeyError) as info:
        from_named('{"block":true,"major":1,"minor":2,"' + key + '":1}', DEVICE)
    assert str(info.value) == f"unexpected key(s): {key[:10]!r}… (1000 characters)"


def test_a_value_that_is_no_field_value_is_echoed_by_its_type_name():
    """Neither a long list nor a class with a long name is echoed whole."""
    long_named = type("C" * 1000, (), {})()
    for v, echo in ((list(range(100_000)), "'list'"),
                    (long_named, f"{'C' * 40!r}… (1000 characters)")):
        for call in (lambda: apply_field(Builder(DEVICE), v),
                     lambda: to_named(Device(v, 1, 2), DEVICE)):
            with pytest.raises(Error) as info:
                call()
            assert str(info.value) == f"not a field value: type {echo}"
            assert len(str(info.value)) < 200


def test_unexpected_keys_are_named_up_to_three_then_counted():
    """A line of 20,000 unknown keys gives a diagnostic of under 300
    characters: its first three keys in sorted order, then their count."""
    for count, message in (
        (3, "unexpected key(s): 'k0', 'k1', 'k2'"),
        (4, "unexpected key(s): 'k0', 'k1', 'k2', … (4 keys)"),
        (20_000, "unexpected key(s): 'k0', 'k1', 'k10', … (20000 keys)"),
    ):
        line = "{" + ",".join(f'"k{i}":1' for i in range(count)) + "}"
        with pytest.raises(ExtraKeyError) as info:
            from_named(line, DEVICE)
        assert str(info.value) == message
        assert len(message) < 300


# ---------------------------------------------------------------------------
# One field check: apply_field and every encoder test a value with check_field.


FIELD_CHECKS = {
    "apply_field": rebuild,
    "to_named": to_named,
    "encode_binary": encode_binary,
    "show_line-lisp": SHOW_LINES[0],
    "show_line-scott": SHOW_LINES[1],
}


@pytest.mark.parametrize("name", sorted(FIELD_CHECKS))
def test_a_huge_int_gives_a_short_error(name):
    """An int of 5001 digits in an int or a bool field is a recplug Error of
    under 200 characters, which names the int by its sign and bit length:
    it is never converted to decimal, which Python refuses past 4300 digits."""
    wrong_kind = FieldTypeError if name == "apply_field" else WrongValueKindError
    for v, sign in ((10**5000, "an"), (-(10**5000), "a negative")):
        cases = (
            (Device(True, v, 1), IntOverflowError, "integer out of 64-bit signed range: {}"),
            (Device(v, 1, 1), wrong_kind, "field 'block' of device expects bool, got int ({})"),
        )
        for record, cls, message in cases:
            with pytest.raises(Error) as info:
                FIELD_CHECKS[name](record, DEVICE)
            assert type(info.value) is cls
            assert str(info.value) == message.format(f"{sign} int of 16610 bits")
            assert len(str(info.value)) < 200


#: Values that reach check_field: the builder's values, ints too long to
#: show whole and strings too long to echo whole.
checked_values = st.one_of(
    builder_values,
    st.sampled_from([10**5000, -(10**5000), 10**20, -(10**19) - 1, 2**64]),
    st.text(min_size=41, max_size=60),
    st.just("x" * 100_000),
)
#: A plain value of each kind, which every wire form of that kind writes.
PLAIN_SAMPLES = {Kind.BOOL: True, Kind.INT: 7, Kind.STR: "s", Kind.REAL: 2.5}
KIND_ERRORS = {FieldTypeError, WrongValueKindError}


@given(st.sampled_from(sorted(REGISTRY)), st.integers(0, 3), checked_values)
@example("benchmark_avg", 0, math.inf)
@example("benchmark_avg", 2, SubReal(-math.inf))
@example("benchmark_avg", 0, math.nan)
def test_apply_field_and_every_encoder_check_a_field_alike(type_id, i, v):
    """One value in one field of a record: apply_field and each encoder both
    accept it and agree on it, or both refuse it with the same message of at
    most 200 characters, where apply_field's FieldTypeError is an encoder's
    WrongValueKindError.  Outside a str field, whose lexeme and UTF-8 rules
    are its own, every form of the field's kind writes what apply_field
    accepts."""
    schema = schema_for(type_id)
    i %= schema.arity
    values = [PLAIN_SAMPLES[f.kind] for f in schema.fields]
    sample = schema.ctor(*values)
    applied = _outcome(apply_field, Builder(schema, values[:i]), v)
    values[i] = v
    record = schema.ctor(*values)
    if applied[0] == "ok":
        values[i] = applied[1].supplied[-1]  # the value apply_field stored
        assert type(values[i]) is schema.types[i] and values[i] == v
    stored = schema.ctor(*values)
    for encode in (to_named, encode_binary, *SHOW_LINES):
        if _outcome(encode, sample, schema)[0] != "ok":  # the schema has no such form
            continue
        got = _outcome(encode, record, schema)
        if got[0] != "ok":
            assert len(got[1]) <= 200
        if applied[0] == "ok":
            assert got == _outcome(encode, stored, schema)
            assert got[0] not in KIND_ERRORS | {IntOverflowError}
            assert got[0] == "ok" or schema.fields[i].kind is Kind.STR
        else:
            assert got[1] == applied[1] and len(applied[1]) <= 200
            assert got[0] is applied[0] or {got[0], applied[0]} == KIND_ERRORS
