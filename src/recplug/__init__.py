"""recplug: step-fold record transformations with pluggable ports.

Single-constructor records are destructured into a nested-pair field list
or a continuation-passing value, then pretty-printed, mapped, zipped,
stack-machine-rewritten, parsed, and round-trip serialized, all through
step-by-step fold combinators.
"""

from .chop import (
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
from .errors import Error
from .records import (
    EXAMPLE_DEVICE,
    Benchmark,
    Builder,
    Device,
    FieldSpec,
    Kind,
    RecordSchema,
    apply_field,
    builder_new,
    cons,
    destructure_benchmark,
    destructure_device,
    field_list,
    finish,
    kind_of,
    list_fields,
    register,
    schema_for,
    uncons,
)

__all__ = [
    "Benchmark",
    "Builder",
    "Device",
    "EXAMPLE_DEVICE",
    "Error",
    "FieldSpec",
    "Kind",
    "RecordSchema",
    "and_then",
    "apply_field",
    "builder_new",
    "chop",
    "chop2",
    "chop2_left",
    "chop3",
    "cons",
    "destructure_benchmark",
    "destructure_device",
    "field_list",
    "finish",
    "hom_wrap",
    "hom_wrap0",
    "hom_wrap2",
    "kind_of",
    "list_fields",
    "nest2",
    "nest3",
    "register",
    "schema_for",
    "uncons",
    "unnest2",
    "unnest3",
]
