"""recplug: step-fold record transformations with pluggable ports.

Single-constructor records are destructured into a nested-pair field list
or a continuation-passing value, then pretty-printed, mapped, zipped,
stack-machine-rewritten, parsed, and round-trip serialized, all through
step-by-step fold combinators.  Each name is imported from the one module
that defines it (``recplug.chop``, ...); the package exports only ``register``.
"""

from .records import register

__all__ = ["register"]
