"""Whole-program flow analysis for repro-lint (runs on every lint pass).

Two passes over the scanned file set: pass 1 (``symbols`` + ``callgraph``)
builds the cross-file symbol table, the per-class attribute model and an
approximate call graph; pass 2 runs the rules on it -- the concurrency
contracts (``locks`` + ``escape``, RPR009-012) and the numerics contracts
(``tools.repro_lint.numerics``, RPR013-017 and RPR019).  Per-file rules
see one file at a time; these see the program, so they can follow a lock
across methods, an ordering across classes, or a hard-coded dtype across
the public localization path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any
from collections.abc import Callable, Iterable, Iterator

from tools.repro_lint.engine import Violation
from tools.repro_lint.flow.callgraph import CallGraph, build_call_graph
from tools.repro_lint.flow.escape import (check_executor_escape,
                                          check_shm_lifetime)
from tools.repro_lint.flow.locks import (FunctionSummary, build_summaries,
                                         check_guarded_by, check_lock_order)
from tools.repro_lint.flow.symbols import Program, build_program
from tools.repro_lint.numerics import (build_dtype_surface,
                                       check_dtype_pinning,
                                       check_hot_loop_scalarization,
                                       check_mask_column_reduction,
                                       check_mixed_precision,
                                       check_nondeterministic_rng,
                                       check_partial_init_and_axis)

__all__ = ["FLOW_RULES", "FLOW_RULE_IDS", "FlowReport", "FlowRule",
           "run_flow"]

FlowCheck = Callable[
    [Program, CallGraph, dict[str, FunctionSummary]], Iterator[Violation]]


@dataclass(frozen=True)
class FlowRule:
    """One whole-program check: stable id, docs metadata, check callable."""

    id: str
    name: str
    summary: str
    motivation: str
    check: FlowCheck


FLOW_RULES: list[FlowRule] = [
    FlowRule(
        "RPR009", "guarded-by-violation",
        "attribute guarded by a lock (inferred or annotated) accessed "
        "without holding it, checked inter-procedurally",
        "PR 4: SteeringCache's get/move_to_end/evict sequence raced into "
        "KeyErrors; the per-file RPR003 only saw literal 'with self._lock' "
        "in the same function and missed every cross-method access",
        check_guarded_by),
    FlowRule(
        "RPR010", "lock-order-cycle",
        "cycle in the lock acquisition-order graph (nested 'with' blocks "
        "and calls made while holding a lock): potential deadlock",
        "ROADMAP item 1 adds per-AP ring buffers and a scheduler beside "
        "the existing cache locks; an A->B / B->A inversion between any "
        "two of them deadlocks only under load, never in tests",
        check_lock_order),
    FlowRule(
        "RPR011", "executor-capture-escape",
        "argument submitted to an executor then mutated, or (process "
        "backend) an unpicklable nested-class instance",
        "PR 6: the process backend pickles arguments at submit time; a "
        "post-submit mutation races the thread backend and ships a moving "
        "target to the spawn backend",
        check_executor_escape),
    FlowRule(
        "RPR012", "shm-lifetime-leak",
        "SharedMemory(create=True) handle not proven to reach unlink() "
        "on every path, followed across function boundaries",
        "PR 6/7: pack() creates the segment, _run()'s finally releases "
        "it; the retired per-file RPR004 could not see that split "
        "lifetime and needed a reasoned suppression this analysis "
        "replaces",
        check_shm_lifetime),
    FlowRule(
        "RPR013", "dtype-pinning-unaudited",
        "function reachable from the public localization path hard-codes "
        "a float/complex dtype without a '# dtype-pinned: <dtype> -- "
        "reason' annotation (input dtype not preserved)",
        "ROADMAP item 2's float32 fast path dies silently if one helper "
        "in the covariance/eigh/GEMM chain forces dtype=float64: the "
        "result upcasts, the bit-exact gates still pass, and the 2x "
        "bandwidth win never materializes",
        check_dtype_pinning),
    FlowRule(
        "RPR014", "mixed-precision-promotion",
        "float32/complex64 operand meets a float64/complex128 operand in "
        "arithmetic or GEMM: NumPy upcasts the whole expression silently",
        "the upcast is value-correct, so no test fails -- only the "
        "memory-bandwidth win disappears; this is the failure mode the "
        "float32 mode must prove absent before it can ship",
        check_mixed_precision),
    FlowRule(
        "RPR015", "hot-loop-scalarization",
        "Python loop in core/ calling NumPy per element (loop-variable "
        "indexing) or growing arrays via np.append/concatenate/"
        "np.array(list) inside the loop",
        "PR 3-6 replaced exactly these loops with batched einsum/eigh "
        "paths for the paper's multi-client throughput claims; a new "
        "per-element loop in core/ quietly undoes that work",
        check_hot_loop_scalarization),
    FlowRule(
        "RPR016", "nondeterministic-numerics",
        "legacy np.random.* global-state API anywhere; default_rng() "
        "without a seed in tests/benchmarks/eval",
        "the repo's equality gates compare runs bit-exactly (process "
        "backend vs serial, batched vs sequential); global or unseeded "
        "RNG state makes those gates flaky instead of meaningful",
        check_nondeterministic_rng),
    FlowRule(
        "RPR017", "partial-init-and-axis",
        "np.empty buffer read before any element is provably written; "
        "axis-less mean/sum/median on an array proven >= 2-D",
        "PR 4 shipped NaN-poisoned quantiles from exactly this class: "
        "uninitialized or axis-collapsed aggregates return plausible "
        "numbers, so only an analyzer (not a test oracle) catches them",
        check_partial_init_and_axis),
    FlowRule(
        "RPR019", "mask-column-reduction",
        "sum/mean/prod/std/var (or a cumulative sum) over a boolean-mask "
        "column selection such as x[:, mask] in library code",
        "side_powers_stack once summed power[:, upper_mask] along axis 1: "
        "the mask copy is Fortran-ordered for more than one frame, so a "
        "frame's Section 2.3.4 side powers depended on its batch in the "
        "last bits and a near-tie could flip its half-plane decision",
        check_mask_column_reduction),
]

FLOW_RULE_IDS = frozenset(rule.id for rule in FLOW_RULES)


@dataclass
class FlowReport:
    """Findings plus the ``dtype_surface`` inventory of one flow run."""

    violations: list[Violation]
    dtype_surface: dict[str, Any] = field(default_factory=dict)


def run_flow(files: Iterable[tuple[str, str]]) -> FlowReport:
    """Run every flow rule over ``(path, source)`` pairs.

    Returns sorted findings plus the ``dtype_surface`` classification of
    the public ``repro.api``/``repro.core`` functions in the scanned set.
    """
    program = build_program(list(files))
    graph = build_call_graph(program)
    summaries = build_summaries(program, graph)
    violations: list[Violation] = []
    for rule in FLOW_RULES:
        violations.extend(rule.check(program, graph, summaries))
    violations.sort(key=Violation.sort_key)
    return FlowReport(violations=violations,
                      dtype_surface=build_dtype_surface(program, graph))
