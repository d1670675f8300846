"""Step-fold combinators over (accumulator, field list) pipeline states.

``chop`` consumes one field and folds it into the accumulator; the
variants consume one field from each of two or three lists.  The
``hom_wrap`` family lifts a chopper over reader pipelines (functions from
input records to states) so whole pipelines can be written without
binding a single variable.  A wrapped pipeline is a flat :class:`Pipeline`
value, not a chain of nested closures, so running it takes one loop however
many steps it has.
"""

from .errors import ArityError, Error


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
    plugged after it, built by the ``hom_wrap`` wrappers and, as
    ``scott.CpsChain``, by the CPS choppers.

    Running it on ``*records`` equals the nested closures
    ``chopper_n(... chopper_1(seed(*records), step_1) ..., step_n)``, run
    as one loop over the flat ``steps`` tuple, so the Python stack stays
    flat at any arity.  A step's ``Error`` leaves with ``state``, what the
    step was given, unless an inner run set it: ``(Builder, *lists)``,
    ``_count`` the field index, ``(show stack, list)``, as many cells long, or
    a decoder's ``(Builder, src, pos)``.  ``Pipeline(prior, last)`` is O(1):
    it keeps ``prior`` and one new step; its seed is ``prior``'s if ``prior``
    is of its own class, else ``prior``.  ``steps`` walks back to the seed
    once, on first read, and caches the tuple; nothing else is ever written.
    """

    __slots__ = ("seed", "_prior", "_last", "_steps")

    def __init__(self, prior, last):
        self.seed = prior.seed if type(prior) is type(self) else prior
        self._prior, self._last, self._steps = prior, last, None

    @property
    def steps(self) -> tuple:
        if self._steps is None:
            newest, p, cls = [], self, type(self)
            while type(p) is cls:
                newest.append(p._last)
                p = p._prior
            newest.reverse()
            self._steps = tuple(newest)
        return self._steps

    def __call__(self, *records):
        state = self.seed(*records)
        try:
            for chopper, step in self.steps:
                state = chopper(state, step)
        except Error as exc:
            exc.state = state if exc.state is None else exc.state
            raise
        return state


def hom_wrap(chopper, pipeline, step) -> Pipeline:
    return Pipeline(pipeline, (chopper, step))


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
