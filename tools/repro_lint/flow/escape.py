"""Pass 2 escape rule: executor captures (RPR011).

RPR011 looks at every ``.submit(...)`` call: captured arguments that the
submitting function keeps mutating race the worker (any backend), and
process-backend submissions additionally must pickle -- instances of
classes with no module-level definition and no ``__reduce__`` cannot.

The id RPR012 (shared-memory lifetime, retired with the pool's
shared-memory transport) stays reserved and is not reused.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint.engine import Violation
from tools.repro_lint.flow.callgraph import (CallGraph, LocalTypes,
                                             _annotation_dotted,
                                             resolve_call_target)
from tools.repro_lint.flow.locks import MUTATOR_METHODS, FunctionSummary
from tools.repro_lint.flow.symbols import (ClassModel, FunctionModel,
                                           ModuleModel, Program)

__all__ = ["check_executor_escape"]

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _sorted_modules(program: Program) -> list[ModuleModel]:
    return [program.modules_by_path[path]
            for path in sorted(program.modules_by_path)]


def _owned_walk(function: FunctionModel,
                module: ModuleModel) -> Iterator[ast.AST]:
    """Nodes of ``function`` excluding those owned by nested defs."""
    for node in ast.walk(function.node):
        if node is function.node:
            continue
        if module.owner.get(node) is function:
            yield node


# ----------------------------------------------------------------------
# RPR011 -- executor escape analysis
# ----------------------------------------------------------------------
def _is_process_executor(receiver: ast.AST, function: FunctionModel,
                         module: ModuleModel, program: Program,
                         types: LocalTypes | None) -> bool:
    try:
        text = ast.unparse(receiver).lower()
    except Exception:  # pragma: no cover - unparse is total on valid trees
        text = ""
    if "process" in text or "procpool" in text:
        return True
    if isinstance(receiver, ast.Name) and types is not None:
        type_name = types.type_name(receiver.id) or ""
        if "Process" in type_name:
            return True
        cls = types.classes.get(receiver.id)
        if cls is not None and "Process" in cls.name:
            return True
    if isinstance(receiver, ast.Call):
        target = resolve_call_target(receiver, function, module, program,
                                     types)
        if isinstance(target, ClassModel):
            return "Process" in target.name
        if isinstance(target, FunctionModel):
            returns = _annotation_dotted(
                target.node.returns,
                program.modules.get(target.module, module))
            return bool(returns and "Process" in returns)
    return False


def _loops_around(node: ast.AST, module: ModuleModel) -> set[ast.AST]:
    return {ancestor for ancestor in module.context.ancestors(node)
            if isinstance(ancestor, _LOOPS)}


def _mutations_of(name: str, function: FunctionModel,
                  module: ModuleModel) -> list[ast.AST]:
    """In-place mutations of local ``name`` (rebinding does not count)."""
    found: list[ast.AST] = []
    for node in _owned_walk(function, module):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATOR_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == name:
            found.append(node)
        elif isinstance(node, (ast.Subscript, ast.Attribute)) \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == name:
            found.append(node)
    return found


def _captured_args(call: ast.Call) -> list[ast.expr]:
    captured = [arg for arg in call.args[1:]
                if not isinstance(arg, ast.Starred)]
    captured.extend(keyword.value for keyword in call.keywords
                    if keyword.value is not None)
    return captured


def check_executor_escape(program: Program, graph: CallGraph,
                          summaries: dict[str, FunctionSummary]
                          ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        for function in module.all_functions.values():
            types = graph.types.get(function.qualname)
            for node in _owned_walk(function, module):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute) \
                        or node.func.attr != "submit" or not node.args:
                    continue
                submit_loops = _loops_around(node, module)
                for arg in _captured_args(node):
                    if isinstance(arg, ast.Name):
                        for mutation in _mutations_of(arg.id, function,
                                                      module):
                            after = mutation.lineno > node.lineno
                            shared_loop = bool(
                                submit_loops
                                & _loops_around(mutation, module))
                            if not (after or shared_loop):
                                continue
                            yield Violation(
                                path=module.path, line=node.lineno,
                                col=node.col_offset, rule="RPR011",
                                message=(
                                    f"'{arg.id}' is submitted to an "
                                    f"executor but mutated afterwards "
                                    f"(line {mutation.lineno}): the "
                                    f"worker races the mutation (thread "
                                    f"backend) or pickles a moving "
                                    f"target (process backend); "
                                    f"snapshot it first, e.g. "
                                    f"submit(task, tuple({arg.id}))"))
                            break
                if not _is_process_executor(node.func.value, function,
                                            module, program, types):
                    continue
                for arg in _captured_args(node):
                    cls: ClassModel | None = None
                    if isinstance(arg, ast.Name) and types is not None:
                        cls = types.classes.get(arg.id)
                    elif isinstance(arg, ast.Call):
                        target = resolve_call_target(arg, function, module,
                                                     program, types)
                        if isinstance(target, ClassModel):
                            cls = target
                    if cls is None or cls.module_level or cls.has_reduce:
                        continue
                    yield Violation(
                        path=module.path, line=node.lineno,
                        col=node.col_offset, rule="RPR011",
                        message=(
                            f"instance of {cls.name!r} (defined inside a "
                            f"function) is submitted to a process "
                            f"executor: the spawn backend pickles "
                            f"arguments and nested classes do not "
                            f"pickle; move {cls.name} to module level or "
                            f"give it __reduce__ (see "
                            f"tests/api/test_pickling.py)"))
