import itertools

import pytest

from recplug.chop import (
    and_then,
    chop,
    chop2,
    chop2_left,
    chop3,
    hom_wrap,
    hom_wrap0,
    hom_wrap2,
    nest2,
    nest3,
    unnest2,
    unnest3,
)
from recplug.errors import ArityError
from recplug.records import (
    EXAMPLE_DEVICE,
    Builder,
    apply_field,
    destructure_device,
    schema_for,
)

from support import field_list

# The fixed step pool for brute-force law checks: prepend, drop,
# arithmetic, and boolean-flavored ops over int fields and accumulators.
POOL2 = [
    ("prepend", lambda s, a, c: ((a, c), s)),
    ("drop", lambda s, a, c: s),
    ("sum", lambda s, a, c: s + a + c),
    ("mul-add", lambda s, a, c: s + a * c),
    ("max", lambda s, a, c: max(s, a, c)),
    ("xor", lambda s, a, c: s ^ a ^ c),
]

POOL3 = [
    ("prepend", lambda s, a, b, c: ((a, b, c), s)),
    ("drop", lambda s, a, b, c: s),
    ("sum", lambda s, a, b, c: s + a + b + c),
    ("mul-add", lambda s, a, b, c: s + a * b * c),
    ("max", lambda s, a, b, c: max(s, a, b, c)),
]


def prepend(s, a):
    return [a, *s]


def test_chop_defining_equation():
    assert chop(([], field_list(5, 7)), prepend) == ([5], (7, ()))


def test_chop_first_map_step():
    state = (Builder(schema_for("device")), destructure_device(EXAMPLE_DEVICE))
    acc, rest = chop(state, lambda s, a: apply_field(s, not a))
    assert acc.supplied == (True,)
    assert rest == (19, (1, ()))


def test_chop_empty_rest():
    with pytest.raises(ArityError) as err:
        chop((0, ()), prepend)
    assert err.value.op == "chop"
    assert err.value.remaining == 0


def test_chop2_defining_equation():
    state = (0, field_list(1), field_list(2))
    assert chop2(state, lambda s, a, c: s + a + c) == (3, (), ())


def test_chop2_first_zip_step():
    # false && true on the head fields
    state = (
        Builder(schema_for("device")),
        field_list(False, 19, 1),
        field_list(True, 119, 201),
    )
    acc, ra, rb = chop2(state, lambda s, a, c: apply_field(s, a and c))
    assert acc.supplied == (False,)
    assert ra == field_list(19, 1)
    assert rb == field_list(119, 201)


def test_chop2_arity_errors():
    with pytest.raises(ArityError):
        chop2((0, (), field_list(1)), POOL2[0][1])
    with pytest.raises(ArityError):
        chop2((0, field_list(1), ()), POOL2[0][1])


def test_chop2_left_defining_equation():
    assert chop2_left(((0, field_list(1)), field_list(2)), lambda s, a, c: s + a + c) == (
        (3, ()),
        (),
    )


def test_chop2_left_arity_error():
    with pytest.raises(ArityError):
        chop2_left(((0, ()), field_list(1)), POOL2[0][1])
    with pytest.raises(ArityError):
        chop2_left(((0, field_list(1)), ()), POOL2[0][1])


def _small_states():
    for la, lb in itertools.product(range(5), range(5)):
        ra = field_list(*range(1, la + 1))
        rb = field_list(*range(10, 10 * (lb + 1), 10))
        yield (7, ra, rb)


def test_chop2_left_equals_chop2_under_reassociation():
    # Brute-force oracle over every small state and every pool step.
    for state in _small_states():
        for _, step in POOL2:
            try:
                expected = chop2(state, step)
            except ArityError:
                with pytest.raises(ArityError):
                    chop2_left(nest2(state), step)
                continue
            assert unnest2(chop2_left(nest2(state), step)) == expected


def test_chop3_defining_equation():
    state = (0, field_list(1), field_list(2), field_list(3))
    assert chop3(state, lambda s, a, b, c: s + a + b + c) == (6, (), (), ())


def test_chop3_empty_third_rest():
    with pytest.raises(ArityError):
        chop3((0, field_list(1), field_list(2), ()), POOL3[0][1])


def test_chop3_equals_nested_left_chops():
    # Derived form: an outer chop2_left whose step chops the inner pair.
    def via_nested(state, step):
        nested = chop2_left(
            nest3(state),
            lambda sab, b, c: chop(sab, lambda s, a: step(s, a, b, c)),
        )
        return unnest3(nested)

    for la, lb, lc in itertools.product(range(1, 5), repeat=3):
        state = (
            3,
            field_list(*range(1, la + 1)),
            field_list(*range(10, 10 * (lb + 1), 10)),
            field_list(*range(100, 100 * (lc + 1), 100)),
        )
        for _, step in POOL3:
            assert chop3(state, step) == via_nested(state, step)


def test_hom_wrap_constant_pipeline():
    wrapped = hom_wrap(chop, lambda r: ([], field_list(5)), prepend)
    for r in ("anything", 0, None):
        assert wrapped(r) == ([5], ())


def test_hom_wrap_pointwise_law():
    table = {r: ([], field_list(r, r + 1)) for r in range(20)}
    pipeline = table.__getitem__
    wrapped = hom_wrap(chop, pipeline, prepend)
    for r in table:
        assert wrapped(r) == chop(pipeline(r), prepend)


def test_hom_wrap0_identity_chopper():
    pipeline = lambda r: ([], field_list(r))
    wrapped = hom_wrap0(lambda st: st, pipeline)
    for r in range(10):
        assert wrapped(r) == pipeline(r)


def test_hom_wrap2_constant_pipeline():
    state = (0, field_list(1), field_list(2))
    step = lambda s, a, c: s + a + c
    wrapped = hom_wrap2(chop2, lambda ra, rb: state, step)
    for ra, rb in (("x", "y"), (None, None)):
        assert wrapped(ra, rb) == (3, (), ())


def test_hom_wrap2_pointwise_law():
    pipeline = lambda ra, rb: (0, field_list(ra), field_list(rb))
    step = lambda s, a, c: s + a + c
    wrapped = hom_wrap2(chop2, pipeline, step)
    for ra, rb in itertools.product(range(5), range(5)):
        assert wrapped(ra, rb) == chop2(pipeline(ra, rb), step)


def test_and_then():
    assert and_then(5, lambda x: x + 1) == 6
    pipeline = lambda r: ([], field_list(1, 2))
    drop_head = lambda st: (st[0], st[1][1])
    assert and_then(pipeline, lambda p: hom_wrap0(drop_head, p))(None) == (
        [],
        field_list(2),
    )


def test_operators_are_pure():
    state = (0, field_list(1, 2), field_list(3, 4))
    step = POOL2[0][1]
    assert chop2(state, step) == chop2(state, step)
    wrapped = hom_wrap(chop, lambda r: ([], field_list(r)), prepend)
    assert wrapped(9) == wrapped(9)


def test_wraps_of_one_pipeline_share_it():
    """Wrapping leaves the wrapped pipeline as it was: branches wrapped on
    one prefix run independently and in any order, and steps is flattened
    once per pipeline."""
    base = hom_wrap(chop, lambda r: ([], field_list(*r)), prepend)
    left = hom_wrap(chop, base, lambda s, a: s + [a * 10])
    right = hom_wrap0(lambda st: (st[0], st[1][1]), base)
    record = (1, 2, 3)
    assert left(record) == ([1, 20], (3, ()))
    assert right(record) == ([1], (3, ()))
    assert base(record) == ([1], (2, (3, ())))
    assert left.steps[:1] == right.steps[:1] == base.steps
    assert left.steps is left.steps


def test_a_wrap_of_a_pipeline_that_has_run():
    """A pipeline that has run has its steps flattened already; a wrap of it
    flattens its own back to the seed, the base's steps then its one, and
    the base runs as it did."""
    base = hom_wrap(chop, hom_wrap(chop, lambda r: ([], field_list(*r)), prepend), prepend)
    record = (1, 2, 3)
    assert base(record) == ([2, 1], (3, ()))
    base_steps = base.steps

    def tens(s, a):
        return s + [a * 10]

    wrapped = hom_wrap(chop, base, tens)
    assert wrapped.steps == base_steps + ((chop, tens),)
    assert wrapped(record) == ([2, 1, 30], ())
    assert base.steps is base_steps
    assert base_steps == ((chop, prepend), (chop, prepend))
    assert base(record) == ([2, 1], (3, ()))
