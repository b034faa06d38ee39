"""The numerics flow pass: dtype/shape contracts as lint rules.

Layout mirrors ``tools/repro_lint/flow``:

``domain``
    The abstract dtype lattice, NumPy promotion, and the
    ``# dtype-pinned:`` annotation syntax.
``transfer``
    Transfer functions over the NumPy surface the repo uses (constructor
    pins, per-function dtype/rank environments, expression evaluation).
``rules``
    The RPR013-017 and RPR019 checks, driven by the flow pass's symbol
    table and call graph.
``surface``
    The add-only ``dtype_surface`` JSON section: per public
    ``repro.api``/``repro.core`` function, proven-polymorphic /
    pinned-annotated / unproven.
"""

from tools.repro_lint.numerics.domain import DTYPE_PINNED_RE
from tools.repro_lint.numerics.rules import (check_dtype_pinning,
                                             check_hot_loop_scalarization,
                                             check_mask_column_reduction,
                                             check_mixed_precision,
                                             check_nondeterministic_rng,
                                             check_partial_init_and_axis)
from tools.repro_lint.numerics.surface import build_dtype_surface

__all__ = [
    "DTYPE_PINNED_RE",
    "build_dtype_surface",
    "check_dtype_pinning",
    "check_hot_loop_scalarization",
    "check_mask_column_reduction",
    "check_mixed_precision",
    "check_nondeterministic_rng",
    "check_partial_init_and_axis",
]
