"""A uniform port-plugging surface over the pipeline families.

An instance wraps a seeded pipeline together with a count of open ports
(one per record field).  ``plug`` fills the next port with a piece handler
and is the only way to advance an instance; ``run_instance`` extracts the
result once every port is filled.  Each family delegates to its pipeline
seed and operator, so a plug chain and the directly-built pipeline are the
same computation.  The four families (``mapper``, ``mapper_cps``,
``shower`` and ``zipper``) are built once, at import, and each is called
to make a new instance.

There is deliberately no family-agnostic seed constructor: a generic one
would leave plug chains ambiguous about which family they build.
"""

from collections import namedtuple

from .errors import ExhaustedError, OpenPortsError, PieceKindError
from .pipelines import (
    depure_map, depure_show, depure_zip, mapa, run_map, run_show, run_zip, showa, zipa
)
from .records import schema_for
from .scott import depure_map_cps, mapa_cps, run_map_cps


class Family(namedtuple("Family", "name piece_kind seed_op plug_op run_op")):
    """What the instances of one family share; a plug never copies it.
    Calling a family makes a new instance: ``seed_op(type_id, *destructs)``
    seeds its pipeline, with one open port per field of ``type_id``.
    ``plug_op(pipeline, piece)`` wraps it, and ``run_op`` reads a run's
    result."""

    __slots__ = ()

    def __call__(self, type_id: str, *destructs) -> "PlugInstance":
        return PlugInstance(self, self.seed_op(type_id, *destructs), schema_for(type_id).arity)


class PlugInstance(namedtuple("PlugInstance", "family pipeline steps_remaining")):
    """A seeded pipeline, its family and its count of open ports.  Plugging
    copies three references into a new instance; a tuple is never mutated."""

    __slots__ = ()


# The four families, each built once; each is its instances' constructor.
mapper = Family("mapper", "unary field function", depure_map, mapa, run_map)
mapper_cps = Family("mapper_cps", "unary field function", depure_map_cps, mapa_cps, run_map_cps)
shower = Family("shower", "renderer", lambda _, destruct: depure_show(destruct), showa, run_show)
zipper = Family("zipper", "binary field function", depure_zip, zipa, run_zip)


def plug(instance: PlugInstance, piece) -> PlugInstance:
    """Fill the next open port with a piece handler."""
    family, remaining = instance.family, instance.steps_remaining
    if remaining <= 0:
        raise ExhaustedError(f"{family.name}: no ports left to plug")
    if not callable(piece):
        raise PieceKindError(f"{family.name} expects a {family.piece_kind}, got {piece!r}")
    return PlugInstance(family, family.plug_op(instance.pipeline, piece), remaining - 1)


def run_instance(instance: PlugInstance, *records) -> object:
    if instance.steps_remaining:
        raise OpenPortsError(
            f"{instance.family.name}: {instance.steps_remaining} port(s) still open"
        )
    return instance.family.run_op(instance.pipeline(*records))
