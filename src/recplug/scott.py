"""Continuation-passing pipelines: records are never taken apart.

A CPS record is a function that feeds all its fields, at once, to a
supplied continuation: ``lambda k: k(block, major, minor)``.  There is no
way to peel off a single field, yet ``cons_cps`` (prepend a value to the
continuation's arguments) turns out to be enough to rebuild the whole
show/map/zip pipeline family.  Continuations are variadic; a state built
by ``cons_cps`` calls its continuation as ``k(acc, field1, ..., fieldN)``.

Multi-record states nest to the LEFT: the accumulator is consed first,
then each record in order.  Right-nesting makes the first record's fields
unreachable, so it is not supported; feeding such a state to a chopper
raises ContinuationShapeError.

Running a state recurses through one nested continuation per step, so CPS
pipelines are limited to ``CPS_MAX_ARITY`` steps; building a longer one
raises ArityLimitError instead of a RecursionError at run time.
"""

from functools import reduce

from .chop import Pipeline, hom_wrap
from .errors import ArityLimitError, ContinuationShapeError
from .pipelines import DEVICE_MAPS, DEVICE_ZIPS, render_value
from .records import Builder, apply_field, finish, list_fields, schema_for


def cps_destructor(type_id):
    """The continuation-passing destructor of a registered type, derived
    from its field-list destructor: r -> lambda k: k(field1, ..., fieldN)."""
    destruct = schema_for(type_id).destruct

    def destruct_cps(r):
        values = list_fields(destruct(r))
        return lambda k: k(*values)

    return destruct_cps


destructure_device_cps = cps_destructor("device")
destructure_benchmark_cps = cps_destructor("benchmark")


#: The most steps a CPS pipeline may have.  A run nests about two Python
#: frames per step, and the default recursion limit (1000) is reached near
#: 495 steps; 400 leaves room for the caller's own stack.
CPS_MAX_ARITY = 400


def check_cps_arity(arity: int, op: str) -> None:
    if arity > CPS_MAX_ARITY:
        raise ArityLimitError(op, arity, CPS_MAX_ARITY)


def _cps_step(chopper, pipeline, f, op):
    steps = len(pipeline.steps) if isinstance(pipeline, Pipeline) else 0
    check_cps_arity(steps + 1, op)
    return hom_wrap(chopper, pipeline, f)


def cons_cps(s, rest):
    """Prepend s to a CPS value: the continuation now receives s first."""
    return lambda k: rest(lambda *fields: k(s, *fields))


def _split(args, op):
    if len(args) < 2:
        raise ContinuationShapeError(
            2,
            len(args),
            f"{op}: state yields {len(args)} value(s), needs the accumulator"
            " plus at least one field",
        )
    return args[0], args[1], args[2:]


def chop_cps(i, f):
    """Fuse the accumulator with the next field: k(acc, a, ...) becomes
    k(f(acc, a), ...)."""

    def chopped(k):
        def feed(*args):
            s, a, rest = _split(args, "chop_cps")
            return k(f(s, a), *rest)

        return i(feed)

    return chopped


def _check_nested(inner, op):
    if not callable(inner):
        raise ContinuationShapeError(
            2,
            1,
            f"{op}: state is not left-nested (inner state is {inner!r},"
            " not a function)",
        )


def chop2_cps(i, f):
    """Fuse the accumulator with one field from each of two records.

    The state must be left-nested: the outer level holds the second
    record's fields, its first continuation argument is the inner state
    over (accumulator, first record's fields).
    """

    def chopped(k):
        def feed(*args):
            sab, d, rest_b = _split(args, "chop2_cps")
            _check_nested(sab, "chop2_cps")

            def fused(tb):
                def inner(*inner_args):
                    s, a, rest_a = _split(inner_args, "chop2_cps")
                    return tb(f(s, a, d), *rest_a)

                return sab(inner)

            return k(fused, *rest_b)

        return i(feed)

    return chopped


def chop2_cps_via_chop(i, f):
    """chop2_cps expressed as a single chop_cps whose step rewrites the
    inner state; equal to chop2_cps on every left-nested state."""

    def step(sab, d):
        _check_nested(sab, "chop2_cps_via_chop")

        def fused(tb):
            def inner(*inner_args):
                s, a, rest_a = _split(inner_args, "chop2_cps_via_chop")
                return tb(f(s, a, d), *rest_a)

            return sab(inner)

        return fused

    return chop_cps(i, step)


def chop3_cps(i, f):
    """Three-record analogue, defined through chop2_cps the same way
    chop2_cps reduces to chop_cps."""

    def step(sab, d, g):
        _check_nested(sab, "chop3_cps")

        def fused(tb):
            def inner(*inner_args):
                s, a, rest_a = _split(inner_args, "chop3_cps")
                return tb(f(s, a, d, g), *rest_a)

            return sab(inner)

        return fused

    return chop2_cps(i, step)


# ---------------------------------------------------------------------------
# Seeds: accumulator consed on the left, then each record in order.


def depure_show_cps(destruct_cps):
    return lambda r: cons_cps([], destruct_cps(r))


def depure_map_cps(type_id, destruct_cps):
    schema = schema_for(type_id)
    return lambda r: cons_cps(Builder(schema), destruct_cps(r))


def depure_zip_cps(type_id, destruct_a, destruct_b):
    schema = schema_for(type_id)
    return lambda ra, rb: cons_cps(
        cons_cps(Builder(schema), destruct_a(ra)), destruct_b(rb)
    )


def depure_zip3_cps(type_id, destruct_a, destruct_b, destruct_c):
    schema = schema_for(type_id)
    return lambda ra, rb, rc: cons_cps(
        cons_cps(cons_cps(Builder(schema), destruct_a(ra)), destruct_b(rb)),
        destruct_c(rc),
    )


# ---------------------------------------------------------------------------
# The pipeline family: the same hom_wrap wrappers as the pair track, within
# the CPS arity limit.


def _show_chopper_cps(state, render):
    return chop_cps(state, lambda s, a: [render(a), *s])


def showa_cps(pipeline, render):
    return _cps_step(_show_chopper_cps, pipeline, render, "showa_cps")


def _map_chopper_cps(state, f):
    return chop_cps(state, lambda s, a: apply_field(s, f(a)))


def mapa_cps(pipeline, f):
    return _cps_step(_map_chopper_cps, pipeline, f, "mapa_cps")


def _zip_chopper_cps(state, f):
    return chop2_cps(state, lambda s, a, b: apply_field(s, f(a, b)))


def zipa_cps(pipeline, f):
    return _cps_step(_zip_chopper_cps, pipeline, f, "zipa_cps")


def _zip3_chopper_cps(state, f):
    return chop3_cps(state, lambda s, a, b, c: apply_field(s, f(a, b, c)))


def zipa3_cps(pipeline, f):
    return _cps_step(_zip3_chopper_cps, pipeline, f, "zipa3_cps")


def _single(*args):
    if len(args) != 1:
        raise ContinuationShapeError(
            1,
            len(args),
            f"run: continuation got {len(args)} value(s), expected the"
            " accumulator alone",
        )
    return args[0]


def run_show_cps(state) -> str:
    return " ".join(reversed(state(_single)))


def run_map_cps(state):
    return finish(state(_single))


def run_zip_cps(state):
    return finish(state(_single)(_single))


def run_zip3_cps(state):
    return finish(state(_single)(_single)(_single))


# ---------------------------------------------------------------------------
# Demo pipelines mirroring the pair track.


def show_record_cps(type_id):
    renders = [render_value] * schema_for(type_id).arity
    return reduce(showa_cps, renders, depure_show_cps(cps_destructor(type_id)))


def map_device_demo_cps():
    seed = depure_map_cps("device", destructure_device_cps)
    return reduce(mapa_cps, DEVICE_MAPS, seed)


def zip_device_demo_cps():
    seed = depure_zip_cps("device", destructure_device_cps, destructure_device_cps)
    return reduce(zipa_cps, DEVICE_ZIPS, seed)
