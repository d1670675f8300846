"""A uniform port-plugging surface over the pipeline families.

An instance wraps a seeded pipeline together with a count of open ports
(one per record field).  ``plug`` fills the next port with a piece handler
and is the only way to advance an instance; ``run_instance`` extracts the
result once every port is filled.  Each family delegates to its pipeline
operator, so a plug chain and the directly-built pipeline are the same
computation.

There is deliberately no family-agnostic seed constructor: a generic one
would leave plug chains ambiguous about which family they build.
"""

from typing import Any, Callable, NamedTuple

from . import pipelines, scott
from .errors import ExhaustedError, OpenPortsError, PieceKindError
from .records import schema_for


class Family(NamedTuple):
    """What the instances of one family share; a plug never copies it."""

    name: str
    piece_kind: str
    plug_op: Callable
    run_op: Callable


class PlugInstance:
    """A seeded pipeline, its family and its count of open ports.  Plugging
    copies three references.  Instances are never mutated."""

    __slots__ = ("family", "pipeline", "steps_remaining")

    def __init__(self, family: Family, pipeline: Callable, steps_remaining: int):
        self.family, self.pipeline, self.steps_remaining = family, pipeline, steps_remaining


def mapper(type_id: str, destruct) -> PlugInstance:
    family = Family("mapper", "unary field function", pipelines.mapa, pipelines.run_map)
    pipeline = pipelines.depure_map(type_id, destruct)
    return PlugInstance(family, pipeline, schema_for(type_id).arity)


def mapper_cps(type_id: str, destruct_cps) -> PlugInstance:
    family = Family("mapper_cps", "unary field function", scott.mapa_cps, scott.run_map_cps)
    pipeline = scott.depure_map_cps(type_id, destruct_cps)
    return PlugInstance(family, pipeline, schema_for(type_id).arity)


def shower(type_id: str, destruct) -> PlugInstance:
    family = Family("shower", "renderer", pipelines.showa, pipelines.run_show)
    return PlugInstance(family, pipelines.depure_show(destruct), schema_for(type_id).arity)


def zipper(type_id: str, destruct_a, destruct_b) -> PlugInstance:
    family = Family("zipper", "binary field function", pipelines.zipa, pipelines.run_zip)
    pipeline = pipelines.depure_zip(type_id, destruct_a, destruct_b)
    return PlugInstance(family, pipeline, schema_for(type_id).arity)


def plug(instance: PlugInstance, piece) -> PlugInstance:
    """Fill the next open port with a piece handler."""
    family, remaining = instance.family, instance.steps_remaining
    if remaining <= 0:
        raise ExhaustedError(f"{family.name}: no ports left to plug")
    if not callable(piece):
        raise PieceKindError(f"{family.name} expects a {family.piece_kind}, got {piece!r}")
    return PlugInstance(family, family.plug_op(instance.pipeline, piece), remaining - 1)


def run_instance(instance: PlugInstance, *records) -> Any:
    if instance.steps_remaining:
        raise OpenPortsError(
            f"{instance.family.name}: {instance.steps_remaining} port(s) still open"
        )
    return instance.family.run_op(instance.pipeline(*records))
