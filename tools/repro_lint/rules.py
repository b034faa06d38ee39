"""The repro-lint rule set: one rule per bug class this repo has shipped.

Each rule carries the PR that fixed the original bug (``motivation``), the
canonical replacement pattern (``message``), and a fixture pair under
``tests/tools/fixtures/`` demonstrating it firing and staying quiet.  The
catalogue with prose context lives in ``docs/static_analysis.md``.

Rules are intentionally repo-specific and low-noise: they resolve import
aliases (so ``np.arange`` and ``numpy.arange`` both match) and they encode
the *contract*, not a style preference -- every finding here is a latent
re-occurrence of a bug that has already cost a debugging session.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from collections.abc import Callable, Iterator, Sequence

from tools.repro_lint.engine import ModuleContext

__all__ = ["RULES", "Rule"]

#: ``(line, col, message)`` triples produced by a rule.
Finding = tuple[int, int, str]


class Rule:
    """One static check: stable id, docs metadata, and a ``check`` callable."""

    def __init__(self, rule_id: str, name: str, summary: str, motivation: str,
                 check: Callable[[ModuleContext], Iterator[Finding]]) -> None:
        self.id = rule_id
        self.name = name
        self.summary = summary
        self.motivation = motivation
        self._check = check

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        return self._check(context)


def _location(node: ast.AST) -> tuple[int, int]:
    return (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))


def _contains(node: ast.AST, predicate: Callable[[ast.AST], bool]) -> bool:
    return any(predicate(child) for child in ast.walk(node))


# ----------------------------------------------------------------------
# RPR001 -- float-step np.arange grids
# ----------------------------------------------------------------------
def _is_float_tainted(node: ast.AST) -> bool:
    """True if the expression involves float literals or true division.

    Either one makes ``np.arange`` count/endpoint behaviour depend on float
    rounding: ``arange(0, 180 + res / 2, res)`` famously dropped or
    duplicated the 180-degree seam point for resolutions like 0.3.
    Integer-argument aranges (``np.arange(n)``) are exact and allowed.
    """
    def taints(child: ast.AST) -> bool:
        if isinstance(child, ast.Constant) and isinstance(child.value, float):
            return True
        return isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div)
    return _contains(node, taints)


def _check_float_arange(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = context.resolve_call(node)
        if dotted != "numpy.arange":
            continue
        arguments: list[ast.AST] = list(node.args)
        arguments.extend(keyword.value for keyword in node.keywords
                         if keyword.arg != "dtype")
        has_step = len(node.args) >= 3 or any(
            keyword.arg in ("step", "stop") for keyword in node.keywords)
        if len(node.args) < 2 and not has_step:
            # ``np.arange(n)`` / ``np.arange(3.0)``: a single stop argument
            # yields 0..ceil(stop)-1 with no accumulated step -- exact.
            continue
        if any(_is_float_tainted(argument) for argument in arguments):
            line, col = _location(node)
            yield (line, col,
                   "np.arange with float-valued start/stop/step accumulates "
                   "rounding error in the grid (count and endpoint both "
                   "drift); build grids on their exact point count with "
                   "np.linspace (see repro.core.spectrum.default_angle_grid "
                   "and repro.core.cache.grid_axes)")


# ----------------------------------------------------------------------
# RPR002 -- np.linalg.inv
# ----------------------------------------------------------------------
def _check_matrix_inverse(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = context.resolve_call(node)
        if dotted is None:
            continue
        if dotted.endswith("linalg.inv") or dotted == "numpy.linalg.inv":
            line, col = _location(node)
            yield (line, col,
                   "explicit matrix inversion is worse conditioned and one "
                   "more GEMM than solving the system; use np.linalg.solve "
                   "(see repro.core.music.capon_spectrum)")


# ----------------------------------------------------------------------
# RPR003 (retired) -- LRU cache mutated outside its lock
#
# The per-file check matched the literal ``with self._lock:`` pattern on
# OrderedDict attributes in the same function and nothing else.  It is
# superseded by RPR009 (tools/repro_lint/flow/locks.py): guarded-by
# inference over *any* lock-owning class, checked inter-procedurally, so a
# guarded read from a different method -- invisible here -- is now caught.
# The id stays reserved and is not reused.
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# RPR004 (retired) -- SharedMemory(create=True) without a finally: unlink()
#
# The per-file check looked for an ``unlink()``/``release`` call in a
# ``finally`` of the creating function.  It was superseded by RPR012, a
# cross-function proof of the same contract, which is itself retired now
# that ``src/`` creates no shared-memory segment.  The id stays reserved
# and is not reused.
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# RPR005 -- lambdas/closures submitted to executors
# ----------------------------------------------------------------------
def _chain_parts(node: ast.AST) -> list[str]:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    parts.reverse()
    return parts


def _local_callables(function: ast.AST | None) -> set[str]:
    """Names bound to nested defs or lambdas inside ``function``."""
    if function is None:
        return set()
    names: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not function:
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _check_executor_pickling(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr not in {"submit", "map"}:
            continue
        receiver = " ".join(_chain_parts(node.func.value)).lower()
        if attr == "map" and not ("executor" in receiver or "pool" in receiver):
            continue  # plain .map() on non-executors is unrelated
        if not node.args:
            continue
        task = node.args[0]
        problem: str | None = None
        if isinstance(task, ast.Lambda):
            problem = "a lambda"
        elif isinstance(task, ast.Name):
            enclosing = context.enclosing_function(node)
            if task.id in _local_callables(enclosing):
                problem = f"the locally-defined callable {task.id!r}"
        if problem is None:
            continue
        line, col = _location(node)
        yield (line, col,
               f"{problem} is submitted to an executor: spawn-based process "
               f"pools pickle the task, and lambdas/closures do not pickle "
               f"(the thread backend silently masks this until the backend "
               f"flips to 'process'); submit a module-level function with "
               f"explicit arguments (see repro.api._procpool._drain_task)")


# ----------------------------------------------------------------------
# RPR006 -- bare/swallowed exception handlers
# ----------------------------------------------------------------------
def _is_broad_type(node: ast.AST | None) -> bool:
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(_is_broad_type(element) for element in node.elts)
    parts = _chain_parts(node)
    return bool(parts) and parts[-1] in {"Exception", "BaseException"}


def _swallows(body: Sequence[ast.stmt]) -> bool:
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) \
                and isinstance(statement.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


def _check_swallowed_exceptions(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        line, col = _location(node)
        if node.type is None:
            yield (line, col,
                   "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                   "hides worker-pool failures as hangs; catch the specific "
                   "exception (or 'except Exception' with handling)")
        elif _is_broad_type(node.type) and _swallows(node.body):
            yield (line, col,
                   "broad exception handler with a pass-only body swallows "
                   "worker failures silently (a crashed shard looks like an "
                   "empty result); narrow the exception type or handle it "
                   "(log / re-raise / chain with 'raise ... from exc')")


# ----------------------------------------------------------------------
# RPR007 -- NaN-unguarded reductions in eval/
# ----------------------------------------------------------------------
_NAN_SENSITIVE = frozenset({"percentile", "quantile", "median"})
_GUARD_NAMES = frozenset({"isnan", "isfinite", "nan_to_num"})


def _has_nan_guard(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        parts = _chain_parts(node.func)
        if not parts:
            continue
        if parts[-1] in _GUARD_NAMES:
            return True
        if "summarize_errors" in parts[-1]:
            return True
    return False


def _check_nan_unguarded_reductions(context: ModuleContext) -> Iterator[Finding]:
    if "eval" not in PurePosixPath(context.path).parts:
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = context.resolve_call(node)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if "numpy" not in parts or parts[-1] not in _NAN_SENSITIVE:
            continue
        scope = context.enclosing_function(node) or context.tree
        if _has_nan_guard(scope):
            continue
        line, col = _location(node)
        yield (line, col,
               f"np.{parts[-1]} in eval code without a NaN guard in the "
               f"same function: every comparison against NaN is False, so "
               f"one poisoned sample silently corrupts every quantile; "
               f"validate with np.isfinite first or go through "
               f"repro.eval.metrics.summarize_errors")


# ----------------------------------------------------------------------
# RPR018 -- retry loops without bounded attempts and backoff
# ----------------------------------------------------------------------
_RETRY_BROAD_NAMES = frozenset({"Exception", "BaseException", "OSError"})
_COUNTER_HINTS = ("attempt", "retr", "tries")
_BACKOFF_HINTS = ("sleep", "backoff", "delay")


def _catches_retryable(node: ast.AST | None) -> bool:
    """True for handlers broad enough to absorb infrastructure failures."""
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(_catches_retryable(element) for element in node.elts)
    parts = _chain_parts(node)
    if not parts:
        return False
    return parts[-1] in _RETRY_BROAD_NAMES or parts[-1].endswith("Error")


def _always_exits(body: Sequence[ast.stmt]) -> bool:
    """True when every path through ``body`` leaves the loop iteration
    (raise/return/break) -- such a handler cannot drive a retry."""
    for statement in body:
        if isinstance(statement, (ast.Raise, ast.Return, ast.Break)):
            return True
        if isinstance(statement, ast.If) and statement.orelse \
                and _always_exits(statement.body) \
                and _always_exits(statement.orelse):
            return True
    return False


def _retry_handlers(loop: ast.While) -> list[ast.ExceptHandler]:
    """Handlers inside the loop that catch broadly and loop again."""
    handlers = []
    for node in ast.walk(loop):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if _catches_retryable(handler.type) \
                    and not _always_exits(handler.body):
                handlers.append(handler)
    return handlers


def _names_mention(node: ast.AST, hints: Sequence[str]) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            text = child.id.lower()
        elif isinstance(child, ast.Attribute):
            text = child.attr.lower()
        else:
            continue
        if any(hint in text for hint in hints):
            return True
    return False


def _has_attempt_bound(loop: ast.While) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.Compare) \
                and _names_mention(node, _COUNTER_HINTS):
            return True
    return False


def _has_backoff(loop: ast.While) -> bool:
    for node in ast.walk(loop):
        if not isinstance(node, ast.Call):
            continue
        parts = _chain_parts(node.func)
        if parts and any(hint in parts[-1].lower()
                         for hint in _BACKOFF_HINTS):
            return True
    return False


def _check_unbounded_retry_loop(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.While):
            continue
        if not _retry_handlers(node):
            continue
        missing = []
        if not _has_attempt_bound(node):
            missing.append("a bounded attempt count (compare against "
                           "max_retries/attempts)")
        if not _has_backoff(node):
            missing.append("a backoff sleep between attempts")
        if missing:
            line, col = _location(node)
            yield (line, col,
                   "retry loop catches a broad exception and loops again "
                   f"without {' or '.join(missing)}; a persistent failure "
                   "must exhaust a bounded budget with exponential backoff, "
                   "not spin or hammer forever")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
RULES: list[Rule] = [
    Rule("RPR001", "float-arange-grid",
         "float-step np.arange used where an exact-count grid is required",
         "PRs 4-5: float accumulation dropped/duplicated the 180-degree "
         "seam point of the angle grid for resolutions like 0.3",
         _check_float_arange),
    Rule("RPR002", "explicit-matrix-inverse",
         "np.linalg.inv where np.linalg.solve is the contract",
         "PR 5: the Capon quadratic form via inv() was worse conditioned "
         "and one GEMM slower than solve()",
         _check_matrix_inverse),
    Rule("RPR005", "executor-pickling-hazard",
         "lambda/closure/local function submitted to an executor",
         "PR 6: spawn-based process pools pickle the task; closures that "
         "work on the thread backend crash the process backend",
         _check_executor_pickling),
    Rule("RPR006", "swallowed-exception",
         "bare except, or broad except with a pass-only body",
         "PR 6: swallowed worker exceptions turn shard crashes into "
         "silent wrong answers or hangs; failures must surface chained",
         _check_swallowed_exceptions),
    Rule("RPR007", "nan-unguarded-reduction",
         "np.percentile/quantile/median in eval/ without a NaN guard",
         "PR 4: the old 'errors < 0' guard admitted NaN and silently "
         "poisoned every quantile of the accuracy evaluation",
         _check_nan_unguarded_reductions),
    Rule("RPR018", "unbounded-retry-loop",
         "retry loop without a bounded attempt count and backoff",
         "PR 7: pool supervision retries broken/stalled shards; a retry "
         "loop without a budget and backoff turns one persistent "
         "infrastructure failure into a spin or a thundering herd",
         _check_unbounded_retry_loop),
]
