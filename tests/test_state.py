"""The state a failing step was given travels with its error.

``chop.Pipeline`` runs every pair-track pipeline, encoder, decoder and plug
instance, and ``scott.CpsChain``'s ``feed`` every CPS pipeline.  Each sets
``exc.state`` once, so the field index can be read off it: a Builder's
``_count``, or a show stack's length; a decoder's state also holds its
cursor.  Only the innermost run sets it."""

from functools import reduce

import pytest

from recplug import plug
from recplug.codecs import decode_binary, encode_binary, from_named, lexemes, parse_record, show_line, to_named
from recplug.errors import (
    FieldTypeError,
    InvalidBoolError,
    ParseError,
    TruncatedError,
    WrongValueKindError,
)
from recplug.pipelines import depure_map, depure_zip, identity, mapa, run_map, run_zip, zipa
from recplug.records import DEVICE_SCHEMA, EXAMPLE_DEVICE, Device, destructure_device, list_fields
from recplug.scott import (
    depure_map_cps,
    depure_zip_cps,
    destructure_device_cps,
    mapa_cps,
    run_map_cps,
    run_zip_cps,
    zipa_cps,
)

#: A field function per device field; the middle one gives major a str.
BAD_MAJOR = (identity, str, identity)
#: Zip functions per device field; the last gives minor a str.
BAD_MINOR_ZIP = (lambda a, b: a, lambda a, b: a, lambda a, b: f"{a}{b}")


def state_of(error_type, run):
    """The state attached to the error_type that run() raises."""
    with pytest.raises(error_type) as info:
        run()
    return info.value.state


def test_a_truncated_image_stops_at_minor_and_its_offset():
    image = encode_binary(EXAMPLE_DEVICE, DEVICE_SCHEMA)[:12]
    acc, src, pos = state_of(TruncatedError, lambda: decode_binary(image, DEVICE_SCHEMA))
    assert (acc._count, acc.supplied, src, pos) == (2, (False, 19), image, 9)


def test_a_bad_bool_byte_stops_at_the_first_field_and_offset_0():
    image = b"\x02" + encode_binary(EXAMPLE_DEVICE, DEVICE_SCHEMA)[1:]
    acc, src, pos = state_of(InvalidBoolError, lambda: decode_binary(image, DEVICE_SCHEMA))
    assert (acc._count, src, pos) == (0, image, 0)


def test_a_bad_lexeme_stops_at_its_field_and_lexeme_index():
    stream = lexemes("False 19 x")
    acc, src, pos = state_of(ParseError, lambda: parse_record(stream, DEVICE_SCHEMA))
    assert (acc._count, src, pos) == (2, stream, 2)


@pytest.mark.parametrize("encode", [
    encode_binary, to_named, lambda r, s: show_line(r, s, "lisp"),
], ids=["encode_binary", "to_named", "show_line lisp"])
def test_a_pair_track_encoder_stops_with_a_stack_as_long_as_the_field_index(encode):
    stack, rest = state_of(WrongValueKindError, lambda: encode(Device(False, "x", 1), DEVICE_SCHEMA))
    assert (len(list_fields(stack)), list_fields(rest)) == (1, ["x", 1])


def test_the_cps_show_stops_with_a_stack_and_the_fields_left():
    record = Device(False, 19, "x")
    stack, *left = state_of(WrongValueKindError, lambda: show_line(record, DEVICE_SCHEMA, "scott"))
    assert (len(list_fields(stack)), left) == (2, ["x"])


def test_run_map_stops_with_a_builder_at_the_field_index():
    mapped = reduce(mapa, BAD_MAJOR, depure_map("device", destructure_device))
    acc, rest = state_of(FieldTypeError, lambda: run_map(mapped(EXAMPLE_DEVICE)))
    assert (acc._count, list_fields(rest)) == (1, [19, 1])


def test_run_zip_stops_with_a_builder_and_both_field_lists():
    zipped = reduce(zipa, BAD_MINOR_ZIP, depure_zip("device", destructure_device, destructure_device))
    acc, rest_a, rest_b = state_of(FieldTypeError, lambda: run_zip(zipped(EXAMPLE_DEVICE, EXAMPLE_DEVICE)))
    assert (acc._count, list_fields(rest_a), list_fields(rest_b)) == (2, [1], [1])


def test_run_map_cps_stops_with_a_builder_and_the_fields_left():
    mapped = reduce(mapa_cps, BAD_MAJOR, depure_map_cps("device", destructure_device_cps))
    acc, *left = state_of(FieldTypeError, lambda: run_map_cps(mapped(EXAMPLE_DEVICE)))
    assert (acc._count, left) == (1, [19, 1])


def test_run_zip_cps_stops_in_the_inner_chain_with_the_first_records_fields_left():
    seed = depure_zip_cps("device", destructure_device_cps, destructure_device_cps)
    zipped = reduce(zipa_cps, BAD_MINOR_ZIP, seed)
    acc, *left = state_of(FieldTypeError, lambda: run_zip_cps(zipped(EXAMPLE_DEVICE, Device(True, 5, 7))))
    assert (acc._count, acc.supplied, left) == (2, (False, 19), [1])


def test_run_instance_stops_with_a_builder_at_the_field_index():
    instance = reduce(plug.plug, BAD_MAJOR, plug.mapper("device", destructure_device))
    acc, rest = state_of(FieldTypeError, lambda: plug.run_instance(instance, EXAMPLE_DEVICE))
    assert (acc._count, list_fields(rest)) == (1, [19, 1])


#: A device map run on each track: its pipeline's plugged field functions -> the run.
MAP_RUNS = {
    "pair": lambda fs: lambda: run_map(
        reduce(mapa, fs, depure_map("device", destructure_device))(EXAMPLE_DEVICE)),
    "cps": lambda fs: lambda: run_map_cps(
        reduce(mapa_cps, fs, depure_map_cps("device", destructure_device_cps))(EXAMPLE_DEVICE)),
}


@pytest.mark.parametrize("inner", sorted(MAP_RUNS))
@pytest.mark.parametrize("outer", sorted(MAP_RUNS))
def test_an_inner_runs_state_survives_the_outer_handler(outer, inner):
    """The outer run's first step runs the inner one, which fails on major;
    the outer run's own state would hold an empty Builder."""
    run_inner = MAP_RUNS[inner](BAD_MAJOR)
    acc, *_ = state_of(FieldTypeError, MAP_RUNS[outer]((lambda b: run_inner(),)))
    assert (acc._count, acc.supplied) == (1, (False,))


def test_an_error_outside_a_run_loop_has_no_state():
    text = '{"block":false,"major":"x","minor":1}'
    assert state_of(WrongValueKindError, lambda: from_named(text, DEVICE_SCHEMA)) is None
