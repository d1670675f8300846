"""Ready-made pipelines over field lists.

Pretty-printing (``showa``), record mapping (``mapa``), two-record zipping
(``zipa``), the stack-machine operators (``push``/``pop``/``dup``), and the
benchmark averaging application.  Every pipeline is a pure function from
input record(s) to a (accumulator, field list[s]) state; the ``run_*``
functions extract the final result.  Each one, the codecs' encoders
included, is built by plugging: a ``depure_*`` seed, then one wrapper
(``showa``, ``mapa``, ``zipa`` or a stack op) per step.
"""

from functools import partial, reduce
from operator import add

from .chop import and_then, chop, chop2, hom_wrap, hom_wrap0, hom_wrap2
from .errors import ArityError, EmptyInputError
from .records import (
    PLAIN_COPY,
    Benchmark,
    Builder,
    Value,
    apply_field,
    destructure_benchmark,
    destructure_device,
    finish,
    list_fields,
    plain_value,
    schema_for,
)


def identity(v):
    return v


def _keep_left(a, _):
    return a


def render_value(v: Value) -> str:
    """Canonical lexeme for a field value, or a subclass value's plain copy:
    True/False, minimal decimal, the string itself, shortest round-trip float."""
    if type(v) not in PLAIN_COPY:
        _, v = plain_value(v)
    return str(v)


# ---------------------------------------------------------------------------
# Pretty-printing: accumulator is a stack of lexemes, most recent first,
# as a cons chain: () then (lexeme, stack) per step, so a step copies nothing.


def depure_show(destruct):
    return lambda r: ((), destruct(r))


def showa(pipeline, render):
    return hom_wrap(chop, pipeline, lambda s, a: (render(a), s))


def _consumed(op: str, acc, *rests):
    """``acc``, once no field list in ``rests`` holds a field: every pair-track state's exit."""
    if rests.count(()) != len(rests):  # leftovers are counted only to report them
        raise ArityError(op, sum(len(list_fields(r)) for r in rests), f"{op}: unconsumed fields left")
    return acc


def run_show(state) -> str:
    return " ".join(reversed(list_fields(_consumed("run_show", *state))))


# ---------------------------------------------------------------------------
# Mapping: accumulator is a Builder fed one transformed field per step.


def depure_map(type_id, destruct):
    empty = Builder(schema_for(type_id))  # never mutated, so every run shares it
    return lambda r: (empty, destruct(r))


def mapa(pipeline, f):
    return hom_wrap(chop, pipeline, lambda s, a: apply_field(s, f(a)))


def run_map(state):
    return finish(_consumed("run_map", *state))


# ---------------------------------------------------------------------------
# Zipping: one field from each of two records per step.


def depure_zip(type_id, destruct_a, destruct_b):
    empty = Builder(schema_for(type_id))
    return lambda ra, rb: (empty, destruct_a(ra), destruct_b(rb))


def zipa(pipeline, f):
    return hom_wrap2(chop2, pipeline, lambda s, a, c: apply_field(s, f(a, c)))


def run_zip(state):
    return finish(_consumed("run_zip", *state))


# ---------------------------------------------------------------------------
# Stack-machine operators on the pending field list.


def pop(pipeline):
    """A ``chop`` that drops the field."""
    return hom_wrap(chop, pipeline, _keep_left)


def _push_step(state, v):
    acc, rest = state
    return (acc, (v, rest))


def push(pipeline, v):
    return hom_wrap(_push_step, pipeline, v)


def _dup_step(state):
    acc, rest = state
    if rest == ():
        raise ArityError("dup", 0)
    head, tail = rest
    return (acc, (head, (head, tail)))


def dup(pipeline):
    return hom_wrap0(_dup_step, pipeline)


# ---------------------------------------------------------------------------
# Demo pipelines over the sample device record.


def show_record(type_id):
    """Pretty-printing pipeline for any registered record type."""
    schema = schema_for(type_id)
    return reduce(showa, [render_value] * schema.arity, depure_show(schema.destruct))


#: The device demos' field functions, one per field, shared by both tracks.
DEVICE_MAPS = (lambda b: not b, lambda x: x + 100, lambda y: y + 200)
DEVICE_ZIPS = (lambda a, b: a and b, add, add)


def map_device_demo():
    return reduce(mapa, DEVICE_MAPS, depure_map("device", destructure_device))


def zip_device_demo():
    seed = depure_zip("device", destructure_device, destructure_device)
    return reduce(zipa, DEVICE_ZIPS, seed)


def remap_device_demo():
    """``depure_map & pop & push True & mapa id & pop & dup & mapa id & mapa id``."""
    map_id = partial(mapa, f=identity)
    pieces = (pop, partial(push, v=True), map_id, pop, dup, map_id, map_id)
    return reduce(and_then, pieces, depure_map("device", destructure_device))


# ---------------------------------------------------------------------------
# Benchmark averaging: fold with a zip pipeline, then divide with a map one.

#: Sums the app fields and keeps the left logs, which are joined after the fold.
_BAPPEND = reduce(zipa, (add, _keep_left, add, _keep_left),
                  depure_zip("benchmark", destructure_benchmark, destructure_benchmark))


def average(outputs) -> Benchmark:
    """Pointwise average of int-app benchmarks into a float-app benchmark.

    App fields are summed then divided by the count; log fields are
    concatenated.  ``outputs`` may be any iterable: each record is folded in
    as it arrives, and the fold aborts on the first error (overflow
    included).  The logs are joined once after the fold: concatenating them
    step by step would copy the growing log on every record.
    """
    summed, first_logs, second_logs = Benchmark(0, "", 0, ""), [], []
    for b in outputs:
        summed = run_zip(_BAPPEND(summed, b))
        first_logs.append(b.first_log)
        second_logs.append(b.second_log)
    n = len(first_logs)
    if not n:
        raise EmptyInputError("average: need at least one benchmark")
    folded = Benchmark(summed.first_app, "".join(first_logs), summed.second_app, "".join(second_logs))

    divide = lambda v: v / n
    bdivide = reduce(mapa, (divide, identity, divide, identity),
                     depure_map("benchmark_avg", destructure_benchmark))
    return run_map(bdivide(folded))
