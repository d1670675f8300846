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

Each chopper returns a :class:`CpsChain`, a ``chop.Pipeline`` over the
state it extends, rather than a nested continuation.  Running a state reads
its flat ``steps`` and applies them in one loop, so a CPS pipeline takes
time linear in its arity and has no depth limit.  A zip state's inner level
is a chain of the same kind.
"""

from functools import reduce

from .chop import Pipeline, hom_wrap
from .errors import ContinuationShapeError, Error
from .pipelines import DEVICE_MAPS, DEVICE_ZIPS
from .records import Builder, _echo, apply_field, finish, list_fields, schema_for


def cps_destructor(type_id):
    """The continuation-passing destructor of a registered type."""
    return cps_form(schema_for(type_id).destruct)


def cps_form(destruct):
    """A field-list destructor's CPS form: r -> lambda k: k(field1, ..., fieldN)."""

    def destruct_cps(r):
        values = list_fields(destruct(r))
        return lambda k: k(*values)

    return destruct_cps


destructure_device_cps = cps_destructor("device")


def cons_cps(s, rest):
    """Prepend s to a CPS value: the continuation now receives s first."""
    return lambda k: rest(lambda *fields: k(s, *fields))


class CpsChain(Pipeline):
    """``chop_cps`` steps as a :class:`chop.Pipeline`: its seed is the first
    state that is not a chain, and its steps are (op, step) pairs, the op
    named in shape errors.

    Calling a chain with ``k`` calls its seed with one ``feed``.  ``feed(acc,
    a1, ..., aN)`` applies each step in order, ``acc = step(acc, a)``, then
    calls ``k(acc, *rest)`` once; that equals one nested continuation per
    step, run as one loop, so the Python stack stays flat at any arity.  A
    step's ``Error`` leaves with ``state = (acc, *fields left)``, the
    failing field first, unless an inner run set it."""

    __slots__ = ()

    def __call__(self, k):
        steps = self.steps

        def feed(*args):
            acc, *fields = args or (None,)
            try:
                for (_, step), a in (pairs := zip(steps, fields)):
                    acc = step(acc, a)
            except Error as exc:  # fields[i]'s step failed; pairs holds the pairs after it
                i = min(len(steps), len(fields)) - 1 - len(list(pairs))
                exc.state = (acc, *fields[i:]) if exc.state is None else exc.state
                raise
            if len(fields) < len(steps):
                count = len(args) - len(fields)
                raise ContinuationShapeError(2, count, f"{steps[len(fields)][0]}: state yields {count}"
                                             " value(s), needs the accumulator plus at least one field")
            return k(acc, *fields[len(steps) :])

        return self.seed(feed)


def chop_cps(i, f):
    """Fuse the accumulator with the next field: k(acc, a, ...) becomes
    k(f(acc, a), ...)."""
    return CpsChain(i, ("chop_cps", f))


def _fuse(op, f):
    """The outer step of a multi-record chopper: it rewrites the inner state
    sab into a chain whose step passes the other records' fields to f."""

    def step(sab, *others):
        if not callable(sab):
            raise ContinuationShapeError(2, 1, f"{op}: state is not left-nested"
                                         f" (inner state is {_echo(sab)}, not a function)")
        return CpsChain(sab, (op, lambda s, a: f(s, a, *others)))

    return step


def chop2_cps(i, f):
    """Fuse the accumulator with one field from each of two records.

    The state must be left-nested: the outer level holds the second
    record's fields, its first continuation argument is the inner state
    over (accumulator, first record's fields).
    """
    return CpsChain(i, ("chop2_cps", _fuse("chop2_cps", f)))


def chop2_cps_via_chop(i, f):
    """chop2_cps expressed as a single chop_cps whose step rewrites the
    inner state; equal to chop2_cps on every left-nested state."""
    return chop_cps(i, _fuse("chop2_cps_via_chop", f))


def chop3_cps(i, f):
    """Three-record analogue, defined through chop2_cps the same way
    chop2_cps reduces to chop_cps."""
    return chop2_cps(i, _fuse("chop3_cps", f))


# ---------------------------------------------------------------------------
# Seeds: accumulator consed on the left, then each record in order.


def depure_show_cps(destruct_cps):
    return lambda r: cons_cps((), destruct_cps(r))


def depure_map_cps(type_id, destruct_cps):
    empty = Builder(schema_for(type_id))  # never mutated, so every run shares it
    return lambda r: cons_cps(empty, destruct_cps(r))


def depure_zip_cps(type_id, destruct_a, destruct_b):
    empty = Builder(schema_for(type_id))
    return lambda ra, rb: cons_cps(cons_cps(empty, destruct_a(ra)), destruct_b(rb))


def depure_zip3_cps(type_id, destruct_a, destruct_b, destruct_c):
    empty = Builder(schema_for(type_id))
    return lambda ra, rb, rc: cons_cps(
        cons_cps(cons_cps(empty, destruct_a(ra)), destruct_b(rb)), destruct_c(rc)
    )


# ---------------------------------------------------------------------------
# The pipeline family: the same hom_wrap wrappers as the pair track.  Each
# step function is made once, when the pipeline is wrapped, not on every
# run: the nodes of a running chain stay alive until it ends, and a closure
# per node as well (a function and its cell) would give the garbage
# collector three more live objects per step to scan.


def showa_cps(pipeline, render):
    return hom_wrap(chop_cps, pipeline, lambda s, a: (render(a), s))


def mapa_cps(pipeline, f):
    return hom_wrap(chop_cps, pipeline, lambda s, a: apply_field(s, f(a)))


def zipa_cps(pipeline, f):
    return hom_wrap(chop2_cps, pipeline, lambda s, a, b: apply_field(s, f(a, b)))


def zipa3_cps(pipeline, f):
    return hom_wrap(
        chop3_cps, pipeline, lambda s, a, b, c: apply_field(s, f(a, b, c))
    )


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
    return " ".join(reversed(list_fields(state(_single))))


def run_map_cps(state):
    return finish(state(_single))


def run_zip_cps(state):
    return finish(state(_single)(_single))


def run_zip3_cps(state):
    return finish(state(_single)(_single)(_single))


# ---------------------------------------------------------------------------
# Demo pipelines mirroring the pair track.


def map_device_demo_cps():
    seed = depure_map_cps("device", destructure_device_cps)
    return reduce(mapa_cps, DEVICE_MAPS, seed)


def zip_device_demo_cps():
    seed = depure_zip_cps("device", destructure_device_cps, destructure_device_cps)
    return reduce(zipa_cps, DEVICE_ZIPS, seed)
