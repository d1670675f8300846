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

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from . import pipelines, scott
from .errors import ExhaustedError, OpenPortsError, PieceKindError
from .records import schema_for


@dataclass(frozen=True)
class PlugInstance:
    name: str
    piece_kind: str
    pipeline: Callable
    steps_remaining: int
    plug_op: Callable = field(repr=False)
    run_op: Callable = field(repr=False)
    n_inputs: int = 1


def mapper(type_id: str, destruct) -> PlugInstance:
    return PlugInstance(
        "mapper",
        "unary field function",
        pipelines.depure_map(type_id, destruct),
        schema_for(type_id).arity,
        pipelines.mapa,
        pipelines.run_map,
    )


def mapper_cps(type_id: str, destruct_cps) -> PlugInstance:
    return PlugInstance(
        "mapper_cps",
        "unary field function",
        scott.depure_map_cps(type_id, destruct_cps),
        schema_for(type_id).arity,
        scott.mapa_cps,
        scott.run_map_cps,
    )


def shower(type_id: str, destruct) -> PlugInstance:
    return PlugInstance(
        "shower",
        "renderer",
        pipelines.depure_show(destruct),
        schema_for(type_id).arity,
        pipelines.showa,
        pipelines.run_show,
    )


def zipper(type_id: str, destruct_a, destruct_b) -> PlugInstance:
    return PlugInstance(
        "zipper",
        "binary field function",
        pipelines.depure_zip(type_id, destruct_a, destruct_b),
        schema_for(type_id).arity,
        pipelines.zipa,
        pipelines.run_zip,
        n_inputs=2,
    )


def plug(instance: PlugInstance, piece) -> PlugInstance:
    """Fill the next open port with a piece handler."""
    if instance.steps_remaining <= 0:
        raise ExhaustedError(f"{instance.name}: no ports left to plug")
    if not callable(piece):
        raise PieceKindError(
            f"{instance.name} expects a {instance.piece_kind}, got {piece!r}"
        )
    return replace(
        instance,
        pipeline=instance.plug_op(instance.pipeline, piece),
        steps_remaining=instance.steps_remaining - 1,
    )


def run_instance(instance: PlugInstance, *records) -> Any:
    if instance.steps_remaining:
        raise OpenPortsError(
            f"{instance.name}: {instance.steps_remaining} port(s) still open"
        )
    return instance.run_op(instance.pipeline(*records))
