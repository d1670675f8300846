"""Pair-track pipelines and codecs at arities far past the Python recursion
limit: each runs a flat step sequence, so none may depend on stack depth."""

import dataclasses
import json
import random
import struct
from functools import reduce

import pytest

from recplug import plug
from recplug.codecs import (
    _LEXEME_PRIMITIVES,
    decode_binary,
    encode_binary,
    from_named,
    lexemes,
    p_ap,
    p_pure,
    parse_record,
    to_named,
)
from recplug.pipelines import (
    depure_map,
    depure_zip,
    dup,
    mapa,
    pop,
    push,
    render_value,
    run_map,
    run_show,
    run_zip,
    show_record,
    zipa,
)
from recplug.records import EXAMPLE_DEVICE, Builder, Kind, destructure_device, finish

from support import WIDE_MAPS as MAPS, WIDE_ZIPS as ZIPS, random_wide, registered_wide


def ref_binary(schema, values):
    out = []
    for f, v in zip(schema.fields, values):
        if f.kind is Kind.BOOL:
            out.append(struct.pack("<?", v))
        elif f.kind is Kind.INT:
            out.append(struct.pack("<q", v))
        else:
            raw = v.encode("utf-8")
            out.append(struct.pack("<I", len(raw)) + raw)
    return b"".join(out)


@pytest.fixture(scope="module", params=[1000, 5000])
def wide(request):
    with registered_wide(request.param) as schema:
        rng = random.Random(request.param)
        yield schema, random_wide(rng, schema), random_wide(rng, schema)


def test_pair_track_pipelines_at_depth(wide):
    schema, a, b = wide
    tid, va, vb = schema.type_id, dataclasses.astuple(a), dataclasses.astuple(b)
    kinds = [f.kind for f in schema.fields]

    assert run_show(show_record(tid)(a)) == " ".join(render_value(v) for v in va)

    mapped = depure_map(tid, schema.destruct)
    instance = plug.mapper(tid, schema.destruct)
    for k in kinds:
        mapped = mapa(mapped, MAPS[k])
        instance = plug.plug(instance, MAPS[k])
    expected = tuple(MAPS[k](v) for k, v in zip(kinds, va))
    assert dataclasses.astuple(run_map(mapped(a))) == expected
    assert dataclasses.astuple(plug.run_instance(instance, a)) == expected

    zipped = depure_zip(tid, schema.destruct, schema.destruct)
    for k in kinds:
        zipped = zipa(zipped, ZIPS[k])
    expected = tuple(ZIPS[k](x, y) for k, x, y in zip(kinds, va, vb))
    assert dataclasses.astuple(run_zip(zipped(a, b))) == expected


def test_codecs_round_trip_at_depth(wide):
    schema, a, _ = wide
    values = dataclasses.astuple(a)
    names = [f.name for f in schema.fields]

    text = to_named(a, schema)
    assert text == json.dumps(dict(zip(names, values)), separators=(",", ":"), ensure_ascii=False)
    assert from_named(text, schema) == a

    image = encode_binary(a, schema)
    assert image == ref_binary(schema, values)
    assert decode_binary(image, schema) == a

    stream = lexemes(run_show(show_record(schema.type_id)(a)))
    assert parse_record(stream, schema) == a

    parsers = [_LEXEME_PRIMITIVES[f.kind] for f in schema.fields]
    built, src, cursor = reduce(p_ap, parsers, p_pure(Builder(schema)))(stream, 0)
    assert (finish(built), src, cursor) == (a, stream, len(stream))


def test_stack_ops_at_depth():
    """hom_wrap0's pop and dup and hom_wrap's push, each 5000 deep, undo
    each other: the seed's own state comes back."""
    seed = depure_map("device", destructure_device)
    dup_pop = seed
    for _ in range(5000):
        dup_pop = pop(dup(dup_pop))
    push_pop = reduce(push, range(5000), seed)
    for _ in range(5000):
        push_pop = pop(push_pop)
    assert dup_pop(EXAMPLE_DEVICE) == seed(EXAMPLE_DEVICE)
    assert push_pop(EXAMPLE_DEVICE) == seed(EXAMPLE_DEVICE)
