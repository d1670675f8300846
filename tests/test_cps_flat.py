"""The flat CPS choppers against the nested-closure reference.

Both forms are run on the same random states and step chains, including
records whose CPS value calls its continuation 0, 1 or 2 times.  They must
return the same value, call the steps and the final continuation with the
same arguments in the same order, and fail at the same step with the same
error class and message.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recplug.chop import Pipeline
from recplug.errors import ContinuationShapeError, FieldTypeError
from recplug.scott import (
    CpsChain,
    chop2_cps,
    chop2_cps_via_chop,
    chop3_cps,
    chop_cps,
    cons_cps,
)

from support import ref_chop2_cps, ref_chop2_cps_via_chop, ref_chop3_cps, ref_chop_cps

# The choppers for states over 1, 2 and 3 records.  The two 2-record ones
# name different ops in their errors and may be mixed in one chain.
FLAT = {1: [chop_cps], 2: [chop2_cps, chop2_cps_via_chop], 3: [chop3_cps]}
REFERENCE = {
    1: [ref_chop_cps],
    2: [ref_chop2_cps, ref_chop2_cps_via_chop],
    3: [ref_chop3_cps],
}


def _fail_on_odd(s, *xs):
    if xs[0] % 2:
        raise FieldTypeError(f"odd field {xs[0]}")
    return (s, *xs)


# Order-sensitive steps, so swapped arguments or steps would show.
STEPS = {
    "nest": lambda s, *xs: (s, *xs),
    "sum": lambda s, *xs: (s if isinstance(s, int) else 0) * 31 + sum(xs),
    "keep": lambda s, *xs: s,
    "fail-on-odd": _fail_on_odd,
}


def cps_fields(fields, calls):
    """A CPS value that calls its continuation ``calls`` times and returns
    the list of the continuation's results."""
    return lambda k: [k(*fields) for _ in range(calls)]


def logged(log, name):
    def step(s, *xs):
        log.append((name, s, xs))
        return STEPS[name](s, *xs)

    return step


def materialize(state, width, k):
    """Run a ``width``-record state to plain data: each level's continuation
    runs the level below and keeps the fields left over; ``k`` is the
    innermost continuation."""
    if width == 1:
        return state(k)
    return state(lambda inner, *rest: (materialize(inner, width - 1, k), rest))


def outcome(run):
    try:
        return ("ok", run())
    except Exception as exc:  # compared by class and message with the reference's
        return ("error", type(exc), str(exc))


def run_chain(choppers, width, records, calls, steps, flat_level):
    """Seed ``width`` records left-nested over accumulator 0, apply one
    chopper per (step name, chopper index), and run the result; returns the outcome and the
    log of every step and innermost continuation call, in call order.

    ``flat_level`` replaces the state at that nesting level with a value that
    is not a function, so a multi-record chopper meets a state that is not
    left-nested.
    """
    log = []

    def k(*args):
        log.append(("k", args))
        return list(args)

    def run():
        state = 0
        for level, (fields, n) in enumerate(zip(records, calls)):
            state = 7 if level == flat_level else state
            state = cons_cps(state, cps_fields(fields, n))
        for name, index in steps:
            chopper = choppers[width][index % len(choppers[width])]
            state = chopper(state, logged(log, name))
        return materialize(state, width, k)

    return outcome(run), log


def _field_lists(width):
    fields = st.lists(st.integers(-9, 9), max_size=6)
    return st.lists(fields, min_size=width, max_size=width)


chains = st.integers(1, 3).flatmap(
    lambda width: st.tuples(
        st.just(width),
        _field_lists(width),
        st.lists(st.sampled_from([0, 1, 2]), min_size=width, max_size=width),
        st.lists(st.tuples(st.sampled_from(sorted(STEPS)), st.integers(0, 1)), max_size=7),
        st.sampled_from([None] + list(range(1, width))),
    )
)


@given(chains)
def test_flat_choppers_equal_nested_closures(chain):
    width, records, calls, steps, flat_level = chain
    flat = run_chain(FLAT, width, records, calls, steps, flat_level)
    nested = run_chain(REFERENCE, width, records, calls, steps, flat_level)
    assert flat == nested


@pytest.mark.parametrize(
    "width,short,flat_level",
    [(w, s, f) for w in (1, 2, 3) for s in range(w) for f in (None, *range(1, w))],
)
def test_shape_errors_at_every_level(width, short, flat_level):
    # One record too short, or one level not left-nested; the second step
    # uses the other 2-record chopper, so its op is the one to be named.
    records = [[2, 4, 6]] * width
    records[short] = [2]
    steps = [("nest", 1), ("nest", 0)]
    flat = run_chain(FLAT, width, records, [1] * width, steps, flat_level)
    nested = run_chain(REFERENCE, width, records, [1] * width, steps, flat_level)
    assert flat == nested
    assert flat[0][:2] == ("error", ContinuationShapeError)


def test_too_few_fields_message():
    def run(chopper):
        state = chopper(chopper(cons_cps(0, cps_fields([5], 1)), max), max)
        return outcome(lambda: state(lambda *args: args))

    message = "chop_cps: state yields 1 value(s), needs the accumulator plus at least one field"
    assert run(chop_cps) == run(ref_chop_cps) == ("error", ContinuationShapeError, message)


def test_chains_are_flat_nodes():
    seed = cons_cps(0, cps_fields([1, 2], 1))
    state = chop_cps(chop_cps(seed, STEPS["nest"]), STEPS["nest"])
    assert isinstance(state, CpsChain) and isinstance(state, Pipeline)
    assert state.seed is seed
    assert state.steps == (("chop_cps", STEPS["nest"]), ("chop_cps", STEPS["nest"]))
    assert state(lambda *args: args) == [(((0, 1), 2),)]
