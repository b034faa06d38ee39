"""The RPR013-017 and RPR019 numerics rules over the whole-program model.

Each check shares the flow pass's symbol table and call graph (pass 1 of
``tools/repro_lint/flow``) and the transfer functions of
``tools.repro_lint.numerics.transfer``.  The rules encode the numerical
bug classes this repo has shipped -- float-step grid seams (PR 4/5),
NaN-poisoned metrics (PR 4) -- plus the contracts the ROADMAP's float32
fast path needs proven *before* it can land: no silent float64 pinning on
the data path (RPR013) and no silent mixed-precision upcasts (RPR014).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from collections.abc import Iterator
from typing import TYPE_CHECKING

from tools.repro_lint.engine import ModuleContext, Violation
from tools.repro_lint.numerics.domain import NARROW_DTYPES, WIDE_DTYPES

if TYPE_CHECKING:  # flow imports numerics; keep the cycle annotation-only
    from tools.repro_lint.flow.callgraph import CallGraph
    from tools.repro_lint.flow.locks import FunctionSummary
    from tools.repro_lint.flow.symbols import (FunctionModel, ModuleModel,
                                               Program)
from tools.repro_lint.numerics.transfer import (collect_pins, infer_env,
                                                infer_expr_dtype,
                                                infer_expr_rank)

__all__ = [
    "check_dtype_pinning",
    "check_hot_loop_scalarization",
    "check_mask_column_reduction",
    "check_mixed_precision",
    "check_nondeterministic_rng",
    "check_partial_init_and_axis",
    "public_functions",
    "reachable_from_public",
]

#: Module whose internal promotion pins are the audited contract itself.
_DTYPE_BOUNDARY_MODULE = "repro.dtypes"


def _parts(module: ModuleModel) -> tuple[str, ...]:
    return PurePosixPath(module.path).parts


def _sorted_modules(program: Program) -> list[ModuleModel]:
    return [program.modules_by_path[path]
            for path in sorted(program.modules_by_path)]


def _in_repro_scope(module: ModuleModel) -> bool:
    """Library code (and the fixture mirror ``fixtures/repro/``)."""
    return "repro" in _parts(module)


def public_functions(program: Program,
                     prefixes: tuple[str, ...] | None = None
                     ) -> list[FunctionModel]:
    """Public surface: module-level defs and methods of module-level
    classes whose names do not start with ``_``.

    ``prefixes`` filters by dotted module name (``("repro.api",
    "repro.core")`` for the dtype_surface report); None keeps every
    in-scope library module (the RPR013 reachability roots).
    """
    selected: list[FunctionModel] = []
    for module in _sorted_modules(program):
        if prefixes is None:
            if not _in_repro_scope(module):
                continue
        elif not any(module.name == prefix
                     or module.name.startswith(prefix + ".")
                     for prefix in prefixes):
            continue
        for function in module.functions.values():
            if not function.name.startswith("_"):
                selected.append(function)
        for cls in module.classes.values():
            if cls.name.startswith("_") or not cls.module_level:
                continue
            for method in cls.methods.values():
                if not method.name.startswith("_"):
                    selected.append(method)
    return selected


def reachable_from_public(program: Program, graph: CallGraph
                          ) -> set[str]:
    """Qualnames reachable from any public library function."""
    frontier = [function.qualname
                for function in public_functions(program)]
    reachable = set(frontier)
    while frontier:
        current = frontier.pop()
        for site in graph.calls_by_caller.get(current, ()):
            if site.callee not in reachable:
                reachable.add(site.callee)
                frontier.append(site.callee)
    return reachable


# ----------------------------------------------------------------------
# RPR013 -- dtype pinning without an audit annotation
# ----------------------------------------------------------------------
def check_dtype_pinning(program: Program, graph: CallGraph,
                        summaries: dict[str, FunctionSummary]
                        ) -> Iterator[Violation]:
    reachable = reachable_from_public(program, graph)
    for module in _sorted_modules(program):
        if not _in_repro_scope(module) \
                or module.name == _DTYPE_BOUNDARY_MODULE:
            continue
        for qualname, pins in sorted(collect_pins(module).items()):
            if qualname not in reachable:
                continue
            for pin in pins:
                if pin.annotated:
                    continue
                if pin.missing_reason:
                    detail = ("its '# dtype-pinned:' annotation is missing "
                              "the mandatory reason; write '# dtype-pinned: "
                              f"{pin.dtype} -- <why this precision is the "
                              "contract>'")
                else:
                    detail = ("preserve the caller's dtype instead "
                              "(repro.dtypes.as_float_array / "
                              "as_complex_array, or dtype=<input>.dtype), "
                              f"or annotate the line with '# dtype-pinned: "
                              f"{pin.dtype} -- <reason>' if this precision "
                              "really is the contract")
                yield Violation(
                    path=module.path, line=pin.node.lineno,
                    col=pin.node.col_offset, rule="RPR013",
                    message=(
                        f"hard-coded dtype={pin.dtype} on the public data "
                        f"path silently upcasts every caller and blocks "
                        f"the float32 fast path; {detail}"))


# ----------------------------------------------------------------------
# RPR014 -- mixed-precision meeting points
# ----------------------------------------------------------------------
_ARITH_GEMMS = frozenset({"dot", "matmul", "einsum", "inner", "outer",
                          "tensordot", "vdot"})


def _mixed(left: str | None, right: str | None) -> bool:
    return (left in NARROW_DTYPES and right in WIDE_DTYPES) \
        or (left in WIDE_DTYPES and right in NARROW_DTYPES)


def check_mixed_precision(program: Program, graph: CallGraph,
                          summaries: dict[str, FunctionSummary]
                          ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        context = module.context
        for function in module.all_functions.values():
            env = infer_env(function, module)
            for node in ast.walk(function.node):
                if module.owner.get(node) is not function:
                    continue
                pair: tuple[str | None, str | None] | None = None
                if isinstance(node, ast.BinOp):
                    pair = (infer_expr_dtype(node.left, context, env),
                            infer_expr_dtype(node.right, context, env))
                elif isinstance(node, ast.Call):
                    dotted = context.resolve_call(node)
                    if dotted is None or not dotted.startswith("numpy."):
                        continue
                    if dotted.rsplit(".", 1)[-1] not in _ARITH_GEMMS:
                        continue
                    dtypes = [infer_expr_dtype(argument, context, env)
                              for argument in node.args
                              if not (isinstance(argument, ast.Constant)
                                      and isinstance(argument.value, str))]
                    known = [dtype for dtype in dtypes if dtype is not None]
                    narrow = [d for d in known if d in NARROW_DTYPES]
                    wide = [d for d in known if d in WIDE_DTYPES]
                    if narrow and wide:
                        pair = (narrow[0], wide[0])
                if pair is None or not _mixed(*pair):
                    continue
                narrow_side = pair[0] if pair[0] in NARROW_DTYPES else pair[1]
                wide_side = pair[1] if pair[0] in NARROW_DTYPES else pair[0]
                yield Violation(
                    path=module.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0), rule="RPR014",
                    message=(
                        f"{narrow_side} operand meets a {wide_side} operand "
                        f"here: NumPy silently upcasts the whole "
                        f"expression, so the 2x bandwidth/memory win of the "
                        f"narrow path evaporates without any test failing; "
                        f"coerce one side explicitly (astype, or build the "
                        f"wide operand in the narrow dtype)"))


# ----------------------------------------------------------------------
# RPR015 -- hot-loop scalarization in core/
# ----------------------------------------------------------------------
_GROWTH_CALLS = frozenset({"append", "concatenate", "vstack", "hstack"})


def _loop_target_names(node: ast.For) -> set[str]:
    names: set[str] = set()
    targets = [node.target]
    while targets:
        target = targets.pop()
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
    return names


def _scalar_index_uses(expr: ast.AST, loop_vars: set[str]) -> bool:
    """True if ``expr`` contains ``a[i]``-style (non-slice) indexing by a
    loop variable -- the per-element access pattern."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.Subscript):
            continue
        indices = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        for index in indices:
            if isinstance(index, ast.Slice):
                continue
            for leaf in ast.walk(index):
                if isinstance(leaf, ast.Name) and leaf.id in loop_vars:
                    return True
    return False


def _list_append_targets(body: list[ast.stmt]) -> set[str]:
    names: set[str] = set()
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "append" \
                    and isinstance(node.func.value, ast.Name):
                names.add(node.func.value.id)
    return names


def _enclosing_loops(context: ModuleContext, node: ast.AST
                     ) -> list[ast.For | ast.While]:
    """Loops lexically enclosing ``node`` up to the nearest ``def``/lambda
    boundary (a function defined inside a loop is its own iteration unit)."""
    loops: list[ast.For | ast.While] = []
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            break
        if isinstance(ancestor, (ast.For, ast.While)):
            loops.append(ancestor)
    return loops


def check_hot_loop_scalarization(program: Program, graph: CallGraph,
                                 summaries: dict[str, FunctionSummary]
                                 ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        # The hot-path scope: src/repro/core (and the fixture mirror
        # fixtures/repro/core).  Test loops calling NumPy per case are
        # fine -- they are not the throughput claim.
        parts = _parts(module)
        if "core" not in parts or "repro" not in parts:
            continue
        context = module.context
        for child in ast.walk(context.tree):
            if not isinstance(child, ast.Call):
                continue
            loops = _enclosing_loops(context, child)
            if not loops:
                continue
            loop_vars: set[str] = set()
            grown_lists: set[str] = set()
            for loop in loops:
                if isinstance(loop, ast.For):
                    loop_vars |= _loop_target_names(loop)
                grown_lists |= _list_append_targets(loop.body)
            dotted = context.resolve_call(child)
            if dotted is None or not dotted.startswith("numpy."):
                continue
            tail = dotted.rsplit(".", 1)[-1]
            if tail == "append":
                yield Violation(
                    path=module.path, line=child.lineno,
                    col=child.col_offset, rule="RPR015",
                    message=(
                        "np.append inside a loop reallocates and "
                        "copies the whole array every iteration "
                        "(quadratic); append to a Python list and "
                        "convert once after the loop, or preallocate "
                        "with np.empty and fill slices"))
                continue
            if tail in _GROWTH_CALLS:
                assign = context.enclosing(child, (ast.Assign,))
                target_names = set()
                if isinstance(assign, ast.Assign):
                    for target in assign.targets:
                        if isinstance(target, ast.Name):
                            target_names.add(target.id)
                operand_names = {leaf.id for argument in child.args
                                 for leaf in ast.walk(argument)
                                 if isinstance(leaf, ast.Name)}
                if target_names & operand_names:
                    yield Violation(
                        path=module.path, line=child.lineno,
                        col=child.col_offset, rule="RPR015",
                        message=(
                            f"np.{tail} accumulates into its own "
                            f"operand inside a loop: every iteration "
                            f"copies everything accumulated so far "
                            f"(quadratic); collect pieces in a list "
                            f"and concatenate once after the loop"))
                continue
            if tail in ("array", "asarray") and child.args \
                    and isinstance(child.args[0], ast.Name) \
                    and child.args[0].id in grown_lists:
                yield Violation(
                    path=module.path, line=child.lineno,
                    col=child.col_offset, rule="RPR015",
                    message=(
                        f"np.{tail}({child.args[0].id}) runs inside "
                        f"the same loop that grows "
                        f"'{child.args[0].id}': the list is "
                        f"re-converted from scratch every iteration; "
                        f"move the conversion after the loop"))
                continue
            if loop_vars and any(
                    _scalar_index_uses(argument, loop_vars)
                    for argument in child.args):
                yield Violation(
                    path=module.path, line=child.lineno,
                    col=child.col_offset, rule="RPR015",
                    message=(
                        f"np.{tail} is called once per element "
                        f"(argument indexed by the loop variable): "
                        f"per-element NumPy calls are ~100x slower "
                        f"than one vectorized call over the stacked "
                        f"axis; batch the loop away (see the "
                        f"compute_many / refine_many patterns)"))


# ----------------------------------------------------------------------
# RPR016 -- nondeterministic numerics
# ----------------------------------------------------------------------
_MODERN_RNG = frozenset({"default_rng", "Generator", "SeedSequence",
                         "BitGenerator", "PCG64", "PCG64DXSM", "Philox",
                         "SFC64", "MT19937"})
_SEED_SCOPES = ("tests", "benchmarks", "eval")


def check_nondeterministic_rng(program: Program, graph: CallGraph,
                               summaries: dict[str, FunctionSummary]
                               ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        context = module.context
        seed_scoped = any(part in _SEED_SCOPES for part in _parts(module))
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = context.resolve_call(node)
            if dotted is None or not dotted.startswith("numpy.random."):
                continue
            tail = dotted.rsplit(".", 1)[-1]
            if tail == "default_rng":
                if seed_scoped and not node.args and not node.keywords:
                    yield Violation(
                        path=module.path, line=node.lineno,
                        col=node.col_offset, rule="RPR016",
                        message=(
                            "default_rng() without a seed in test/"
                            "benchmark/eval code: these feed bit-exact "
                            "equality gates and baseline comparisons, so "
                            "an unseeded stream makes failures "
                            "unreproducible; pass an explicit seed "
                            "(np.random.default_rng(0))"))
                continue
            if tail in _MODERN_RNG:
                continue
            yield Violation(
                path=module.path, line=node.lineno,
                col=node.col_offset, rule="RPR016",
                message=(
                    f"np.random.{tail} uses the legacy global-state RNG: "
                    f"any import or thread touching np.random reorders "
                    f"the stream, so runs are only reproducible by "
                    f"accident; thread an explicit "
                    f"np.random.default_rng(seed) Generator through "
                    f"instead (every simulation entry point accepts "
                    f"rng=)"))


# ----------------------------------------------------------------------
# RPR017 -- partial initialization and reduction-axis hazards
# ----------------------------------------------------------------------
_AXIS_REDUCTIONS = frozenset({"mean", "sum", "median", "average", "prod",
                              "std", "var", "nanmean", "nansum",
                              "nanmedian"})


def _is_zero_size(call: ast.Call) -> bool:
    if not call.args:
        return False
    shape = call.args[0]
    elements = shape.elts if isinstance(shape, ast.Tuple) else [shape]
    return any(isinstance(element, ast.Constant) and element.value == 0
               for element in elements)


def _empty_allocations(function: FunctionModel, module: ModuleModel
                       ) -> list[tuple[str, ast.Call]]:
    found: list[tuple[str, ast.Call]] = []
    for node in ast.walk(function.node):
        if module.owner.get(node) is not function:
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            tail = module.context.resolve_call(node.value)
            if tail == "numpy.empty" and not _is_zero_size(node.value):
                found.append((node.targets[0].id, node.value))
    return found


def _first_use_is_read(name: str, allocation: ast.Call,
                       function: FunctionModel,
                       module: ModuleModel) -> ast.AST | None:
    """The first textual use of ``name`` after allocation when it is a
    *read*; None when it is a write (subscript store, ``out=``, ``.fill``)
    or when there are no further uses."""
    events: list[tuple[int, int, bool, ast.AST]] = []  # (line, col, read?)

    def position(node: ast.AST) -> tuple[int, int]:
        return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))

    claimed: set[ast.AST] = set()
    for node in ast.walk(function.node):
        if module.owner.get(node) is not function:
            continue
        if isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == name:
            events.append((*position(node), False, node))
            claimed.add(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "fill" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == name:
                events.append((*position(node), False, node))
                claimed.add(func.value)
            for keyword in node.keywords:
                if keyword.arg != "out":
                    continue
                value = keyword.value
                root = value.value if isinstance(value, ast.Subscript) \
                    else value
                if isinstance(root, ast.Name) and root.id == name:
                    events.append((*position(value), False, value))
                    for leaf in ast.walk(value):
                        claimed.add(leaf)
    for node in ast.walk(function.node):
        if module.owner.get(node) is not function:
            continue
        if isinstance(node, ast.Name) and node.id == name \
                and node not in claimed \
                and isinstance(node.ctx, ast.Load):
            events.append((*position(node), True, node))
    threshold = (allocation.lineno, allocation.col_offset)
    events = [event for event in events if event[:2] > threshold]
    events.sort(key=lambda event: event[:2])
    if events and events[0][2]:
        return events[0][3]
    return None


def check_partial_init_and_axis(program: Program, graph: CallGraph,
                                summaries: dict[str, FunctionSummary]
                                ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        context = module.context
        for function in module.all_functions.values():
            for name, allocation in _empty_allocations(function, module):
                read = _first_use_is_read(name, allocation, function,
                                          module)
                if read is None:
                    continue
                yield Violation(
                    path=module.path, line=allocation.lineno,
                    col=allocation.col_offset, rule="RPR017",
                    message=(
                        f"np.empty buffer '{name}' is read (line "
                        f"{getattr(read, 'lineno', '?')}) before any "
                        f"element is written: uninitialized memory flows "
                        f"into results nondeterministically; write every "
                        f"element first (slice assignment, out=), or "
                        f"allocate with np.zeros/np.full if a fill value "
                        f"is meaningful"))
            env = infer_env(function, module)
            for node in ast.walk(function.node):
                if module.owner.get(node) is not function \
                        or not isinstance(node, ast.Call):
                    continue
                dotted = context.resolve_call(node)
                if dotted is None or not dotted.startswith("numpy."):
                    continue
                tail = dotted.rsplit(".", 1)[-1]
                if tail not in _AXIS_REDUCTIONS or not node.args:
                    continue
                if len(node.args) > 1 or any(keyword.arg == "axis"
                                             for keyword in node.keywords):
                    continue
                rank = infer_expr_rank(node.args[0], context, env)
                if rank is None or rank < 2:
                    continue
                yield Violation(
                    path=module.path, line=node.lineno,
                    col=node.col_offset, rule="RPR017",
                    message=(
                        f"np.{tail} without an axis on a {rank}-D array "
                        f"collapses the batch and the feature axes "
                        f"together -- in batched code this averages "
                        f"*across clients/frames* and still returns a "
                        f"plausible scalar; pass axis= explicitly "
                        f"(axis=None spelled out is accepted as "
                        f"deliberate)"))


# ----------------------------------------------------------------------
# RPR019 -- summing over a boolean-mask column selection
# ----------------------------------------------------------------------
_SUMMING_REDUCTIONS = frozenset({
    "sum", "mean", "prod", "average", "std", "var", "cumsum", "cumprod",
    "nansum", "nanmean", "nanprod", "nanstd", "nanvar", "nancumsum",
    "nancumprod"})
_MASK_FUNCTIONS = frozenset({"isfinite", "isnan", "isinf", "isclose",
                             "logical_and", "logical_or", "logical_not",
                             "logical_xor"})
_MASK_OPERATORS = (ast.BitAnd, ast.BitOr, ast.BitXor)


def _mask_bindings(function: FunctionModel, module: ModuleModel
                   ) -> dict[str, ast.AST]:
    """``name -> value`` of the function's single-target assignments."""
    bindings: dict[str, ast.AST] = {}
    for node in ast.walk(function.node):
        if module.owner.get(node) is function \
                and isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            bindings[node.targets[0].id] = node.value
    return bindings


def _is_mask(expr: ast.AST, context: ModuleContext,
             bindings: dict[str, ast.AST], dtypes: dict[str, str],
             seen: frozenset[str] = frozenset()) -> bool:
    """True if ``expr`` is syntactically a boolean mask: a comparison, a
    bitwise combination or inversion of one, a NumPy predicate, or a
    name bound to one (or inferred as ``bool``)."""
    if isinstance(expr, ast.Compare):
        return True
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Invert):
        return _is_mask(expr.operand, context, bindings, dtypes, seen)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _MASK_OPERATORS):
        return any(_is_mask(side, context, bindings, dtypes, seen)
                   for side in (expr.left, expr.right))
    if isinstance(expr, ast.Call):
        dotted = context.resolve_call(expr)
        return dotted is not None and dotted.startswith("numpy.") \
            and dotted.rsplit(".", 1)[-1] in _MASK_FUNCTIONS
    if isinstance(expr, ast.Name) and expr.id not in seen:
        if dtypes.get(expr.id) == "bool":
            return True
        value = bindings.get(expr.id)
        return value is not None and _is_mask(
            value, context, bindings, dtypes, seen | {expr.id})
    return False


def _mask_column_selection(expr: ast.AST, context: ModuleContext,
                           bindings: dict[str, ast.AST],
                           dtypes: dict[str, str]) -> bool:
    """True for ``x[:, mask]``-style subscripts: a boolean mask on an axis
    after a full slice (or ``...``), which NumPy materializes as a
    Fortran-ordered copy once more than one row is selected."""
    if not isinstance(expr, ast.Subscript) \
            or not isinstance(expr.slice, ast.Tuple):
        return False
    leading_slice = False
    for index in expr.slice.elts:
        if isinstance(index, ast.Slice) or (
                isinstance(index, ast.Constant) and index.value is Ellipsis):
            leading_slice = True
        elif leading_slice and _is_mask(index, context, bindings, dtypes):
            return True
    return False


def check_mask_column_reduction(program: Program, graph: CallGraph,
                                summaries: dict[str, FunctionSummary]
                                ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        if not _in_repro_scope(module):
            continue
        context = module.context
        for function in module.all_functions.values():
            bindings = _mask_bindings(function, module)
            dtypes = infer_env(function, module).dtypes
            for node in ast.walk(function.node):
                if module.owner.get(node) is not function \
                        or not isinstance(node, ast.Call):
                    continue
                operand: ast.AST | None = None
                dotted = context.resolve_call(node)
                if dotted is not None and dotted.startswith("numpy.") \
                        and dotted.rsplit(".", 1)[-1] in _SUMMING_REDUCTIONS:
                    operand = node.args[0] if node.args else None
                    tail = dotted.rsplit(".", 1)[-1]
                elif isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _SUMMING_REDUCTIONS:
                    operand = node.func.value
                    tail = node.func.attr
                if operand is None or not _mask_column_selection(
                        operand, context, bindings, dtypes):
                    continue
                yield Violation(
                    path=module.path, line=node.lineno,
                    col=node.col_offset, rule="RPR019",
                    message=(
                        f"{tail} over a boolean-mask column selection: "
                        f"x[:, mask] copies the selected columns into a "
                        f"Fortran-ordered array once more than one row is "
                        f"selected, so each row's summation order -- and "
                        f"its last bits -- depend on how many rows share "
                        f"the batch; reduce contiguous slices "
                        f"(x[:, :half]) or a C-ordered copy "
                        f"(np.ascontiguousarray(x[:, mask])) instead"))
