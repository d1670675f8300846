"""Step-fold combinators over (accumulator, field list) pipeline states.

``chop`` consumes one field and folds it into the accumulator; the
variants consume one field from each of two or three lists.  The
``hom_wrap`` family lifts a chopper over reader pipelines (functions from
input records to states) so whole pipelines can be written without
binding a single variable.  A wrapped pipeline is a flat :class:`Pipeline`
value, not a chain of nested closures, so running it takes one loop however
many steps it has.
"""

from .errors import ArityError


def chop(state, step):
    """(acc, (a, rest)) -> (step(acc, a), rest)."""
    acc, rest = state
    if rest == ():
        raise ArityError("chop", 0)
    head, tail = rest
    return (step(acc, head), tail)


def chop2(state, step):
    """(acc, (a, ra), (c, rb)) -> (step(acc, a, c), ra, rb)."""
    acc, rest_a, rest_b = state
    if rest_a == ():
        raise ArityError("chop2", 0, "chop2: first field list is empty")
    if rest_b == ():
        raise ArityError("chop2", 0, "chop2: second field list is empty")
    (a, tail_a), (c, tail_b) = rest_a, rest_b
    return (step(acc, a, c), tail_a, tail_b)


def chop2_left(state, step):
    """chop2 on the left-nested state shape ((acc, ra), rb)."""
    sab, rest_b = state
    if rest_b == ():
        raise ArityError("chop2_left", 0, "chop2_left: second field list is empty")
    c, tail_b = rest_b
    return (chop(sab, lambda s, a: step(s, a, c)), tail_b)


def chop3(state, step):
    """(acc, ra, rb, rc) -> one head consumed from each of the three lists."""
    acc, ra, rb, rc = state
    for label, rest in (("first", ra), ("second", rb), ("third", rc)):
        if rest == ():
            raise ArityError("chop3", 0, f"chop3: {label} field list is empty")
    (a, ta), (b, tb), (c, tc) = ra, rb, rc
    return (step(acc, a, b, c), ta, tb, tc)


class Pipeline:
    """A reader pipeline as data: a seed and the (chopper, step) pairs
    plugged after it, built only by the ``hom_wrap`` wrappers.

    Running it on ``*records`` equals the nested closures
    ``chopper_n(... chopper_1(seed(*records), step_1) ..., step_n)``, run
    as one loop over the flat ``steps`` tuple, so the Python stack stays
    flat at any arity.  Wrapping a pipeline is O(1): the new one keeps the
    pipeline it wraps and its one new step, and ``steps`` flattens that
    chain once, the first time it is read, and caches the tuple.  Nothing
    else is ever written; wrapping a pipeline returns a new one.
    """

    __slots__ = ("seed", "_steps", "_prior", "_last")

    @property
    def steps(self) -> tuple:
        if self._steps is None:
            newest, p = [], self
            while p._steps is None:
                newest.append(p._last)
                p = p._prior
            newest.reverse()
            self._steps = p._steps + tuple(newest)
        return self._steps

    def __call__(self, *records):
        state = self.seed(*records)
        for chopper, step in self.steps:
            state = chopper(state, step)
        return state


def hom_wrap(chopper, pipeline, step) -> Pipeline:
    wrapped = object.__new__(Pipeline)
    wrapped._prior, wrapped._last = pipeline, (chopper, step)
    if isinstance(pipeline, Pipeline):
        wrapped.seed, wrapped._steps = pipeline.seed, None
    else:  # a seed: the first step
        wrapped.seed, wrapped._steps = pipeline, (wrapped._last,)
    return wrapped


def _unary(state, chopper):
    return chopper(state)


def hom_wrap0(chopper, pipeline):
    return hom_wrap(_unary, pipeline, chopper)


#: A two-record chopper wraps exactly as a one-record one does.
hom_wrap2 = hom_wrap


def and_then(x, f):
    return f(x)


# Reassociation helpers between the flat and left-nested state shapes.


def nest2(state):
    acc, ra, rb = state
    return ((acc, ra), rb)


def unnest2(state):
    (acc, ra), rb = state
    return (acc, ra, rb)


def nest3(state):
    acc, ra, rb, rc = state
    return (((acc, ra), rb), rc)


def unnest3(state):
    ((acc, ra), rb), rc = state
    return (acc, ra, rb, rc)
