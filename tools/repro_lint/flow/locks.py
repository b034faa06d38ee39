"""Pass 2 lock rules: guarded-by inference (RPR009), lock order (RPR010).

Both rules share one lock-aware traversal (:func:`build_summaries`): every
function is walked once, tracking which lock identities are held at each
``self`` attribute access, each ``with``-acquire and each call.  A lock
identity is class-qualified (``repro.core.cache.SteeringCache._lock``) or
module-qualified for module-level locks, so two instances of the same class
share an identity -- a deliberate approximation documented in
``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Iterator

from tools.repro_lint.engine import Violation
from tools.repro_lint.flow.callgraph import (CallGraph, LocalTypes,
                                             resolve_call_target)
from tools.repro_lint.flow.symbols import (ClassModel, FunctionModel,
                                           ModuleModel, Program)

__all__ = [
    "FunctionSummary",
    "MUTATOR_METHODS",
    "build_summaries",
    "check_guarded_by",
    "check_lock_order",
]

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
    "remove", "rotate", "setdefault", "sort", "update",
})

_SCOPE_BOUNDARY = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)
_CONSTRUCTORS = ("__init__", "__new__")


@dataclass(frozen=True)
class Access:
    """One read or write of a ``self.<attr>`` attribute."""

    attr: str
    write: bool
    node: ast.AST
    held: tuple[str, ...]


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition (a ``with`` item), with the locks already held."""

    identity: str
    kind: str  # "Lock" | "RLock"
    node: ast.AST
    held: tuple[str, ...]


@dataclass(frozen=True)
class HeldCall:
    """One call site with the locks held at it (callee may be unresolved)."""

    node: ast.Call
    held: tuple[str, ...]
    callee: str | None


@dataclass
class FunctionSummary:
    """Lock-relevant events of one function, in source order."""

    function: FunctionModel
    module: ModuleModel
    accesses: list[Access] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    calls: list[HeldCall] = field(default_factory=list)


def _self_root(node: ast.AST) -> ast.Attribute | None:
    """The ``self.<attr>`` root of an attribute/subscript chain, if any."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute) \
                and isinstance(current.value, ast.Name) \
                and current.value.id == "self":
            return current
        current = current.value
    return None


def _lock_identity(expr: ast.AST, function: FunctionModel,
                   module: ModuleModel, program: Program,
                   types: LocalTypes | None) -> tuple[str, str] | None:
    """``(identity, kind)`` if ``expr`` names a known lock, else None."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        base = expr.value.id
        cls: ClassModel | None = None
        if base == "self" and function.class_qualname:
            cls = program.classes.get(function.class_qualname)
        elif types is not None:
            cls = types.classes.get(base)
        if cls is not None:
            owner = _visible_locks(cls, program).get(expr.attr)
            if owner is not None:
                return (f"{owner.qualname}.{expr.attr}",
                        owner.lock_attrs[expr.attr])
    if isinstance(expr, ast.Name):
        kind = module.module_locks.get(expr.id)
        if kind is not None:
            return f"{module.name}.{expr.id}", kind
    if isinstance(expr, (ast.Name, ast.Attribute)):
        dotted = module.context.dotted_name(expr)
        if dotted and "." in dotted:
            head, _, tail = dotted.rpartition(".")
            for other in program.modules.values():
                if tail in other.module_locks and (
                        other.name == head
                        or other.name.endswith("." + head)):
                    return f"{other.name}.{tail}", other.module_locks[tail]
    return None


class _FunctionWalker:
    """One-pass traversal of a function body tracking held locks."""

    def __init__(self, summary: FunctionSummary, program: Program,
                 types: LocalTypes | None) -> None:
        self.summary = summary
        self.program = program
        self.module = summary.module
        self.function = summary.function
        self.types = types
        #: ``self.<attr>`` nodes already counted as part of a larger write
        #: pattern (mutator call, subscript store) -- not re-counted as reads.
        self._claimed: set[ast.AST] = set()

    def walk(self) -> None:
        for statement in self.function.node.body:
            self._visit(statement, ())

    # ------------------------------------------------------------------
    def _visit(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, _SCOPE_BOUNDARY):
            return  # nested defs get their own summary
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node, held)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, held)
        elif isinstance(node, ast.Attribute):
            self._visit_attribute(node, held)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            root = _self_root(node)
            if root is not None:
                self._record(root.attr, True, node, held)
                self._claimed.add(root)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit_with(self, node: ast.With | ast.AsyncWith,
                    held: tuple[str, ...]) -> None:
        inner = held
        for item in node.items:
            identity = _lock_identity(item.context_expr, self.function,
                                      self.module, self.program, self.types)
            self._visit(item.context_expr, inner)
            if item.optional_vars is not None:
                self._visit(item.optional_vars, inner)
            if identity is not None:
                name, kind = identity
                self.summary.acquires.append(
                    Acquire(name, kind, item.context_expr, inner))
                inner = (*inner, name)
        for statement in node.body:
            self._visit(statement, inner)

    def _visit_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        target = resolve_call_target(node, self.function, self.module,
                                     self.program, self.types)
        callee = target.qualname if isinstance(target, FunctionModel) else None
        self.summary.calls.append(HeldCall(node, held, callee))
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            root = _self_root(func.value)
            if root is not None:
                self._record(root.attr, True, node, held)
                self._claimed.add(root)

    def _visit_attribute(self, node: ast.Attribute,
                         held: tuple[str, ...]) -> None:
        if node in self._claimed:
            return
        root = _self_root(node)
        if root is None:
            return
        if root is node:
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            self._record(node.attr, write, node, held)
        elif isinstance(node.ctx, (ast.Store, ast.Del)):
            # ``self.stats.hits = ...`` mutates the object behind the root
            # attribute: count it as a write of ``stats``.
            self._record(root.attr, True, node, held)
            self._claimed.add(root)

    def _record(self, attr: str, write: bool, node: ast.AST,
                held: tuple[str, ...]) -> None:
        self.summary.accesses.append(Access(attr, write, node, held))


def build_summaries(program: Program,
                    graph: CallGraph) -> dict[str, FunctionSummary]:
    """Walk every function once; keyed by function qualname."""
    summaries: dict[str, FunctionSummary] = {}
    for module in program.modules.values():
        for function in module.all_functions.values():
            summary = FunctionSummary(function, module)
            _FunctionWalker(summary, program,
                            graph.types.get(function.qualname)).walk()
            summaries[function.qualname] = summary
    return summaries


def _sorted_modules(program: Program) -> list[ModuleModel]:
    return [program.modules_by_path[path]
            for path in sorted(program.modules_by_path)]


# ----------------------------------------------------------------------
# RPR009 -- guarded-by inference
# ----------------------------------------------------------------------
def _visible_locks(cls: ClassModel,
                   program: Program) -> dict[str, ClassModel]:
    """Lock attributes ``cls`` owns or inherits -> the class defining each.

    The nearest definition wins, so an inherited lock has the identity of
    the base that assigns it, in base and subclass methods alike.
    """
    locks: dict[str, ClassModel] = {}
    for member in program.lineage(cls):
        for attr in member.lock_attrs:
            locks.setdefault(attr, member)
    return locks


def _lock_held(locks: dict[str, ClassModel],
               held: tuple[str, ...]) -> str | None:
    """Bare name of the innermost held lock among ``locks``, if any."""
    for identity in reversed(held):
        owner, _, attr = identity.rpartition(".")
        if attr in locks and locks[attr].qualname == owner:
            return attr
    return None


def _guarded_map(cls: ClassModel, locks: dict[str, ClassModel],
                 program: Program,
                 summaries: dict[str, FunctionSummary]) -> dict[str, str]:
    """attr -> guarding lock name, from inference plus annotations.

    Base classes defined in the program contribute their locked writes,
    container defaults and annotations; the nearest class's annotation
    of an attribute wins.
    """
    lineage = program.lineage(cls)
    guarded: dict[str, str] = {}
    for member in lineage:
        for method in member.methods.values():
            summary = summaries.get(method.qualname)
            if summary is None:
                continue
            for access in summary.accesses:
                if not access.write:
                    continue
                lock = _lock_held(locks, access.held)
                if lock is not None:
                    guarded.setdefault(access.attr, lock)
    if len(locks) == 1:
        # A class that owns exactly one lock guards its mutable containers
        # by default -- even before any locked write exists to learn from.
        only = next(iter(locks))
        for member in lineage:
            for attr in sorted(member.container_attrs):
                guarded.setdefault(attr, only)
    annotations: dict[str, str] = {}
    for member in reversed(lineage):
        annotations.update(member.annotations)
    for attr, annotation in annotations.items():
        if annotation == "none":
            guarded.pop(attr, None)
        elif annotation in locks:
            guarded[attr] = annotation
    for lock in locks:
        guarded.pop(lock, None)
    return guarded


def _declares(function: FunctionModel, lock: str) -> bool:
    return "*" in function.declared_locks or lock in function.declared_locks


def _runs_locked(qualname: str, identity: str, lock: str, graph: CallGraph,
                 summaries: dict[str, FunctionSummary],
                 stack: frozenset[str]) -> bool:
    """True if every resolved caller provably holds ``identity`` (>= 1)."""
    if qualname in stack:
        return True  # coinductive: a cycle of callers is consistent
    callers = graph.callers_of.get(qualname, ())
    if not callers:
        return False
    for site in callers:
        summary = summaries.get(site.caller)
        if summary is None:
            return False
        held_here: tuple[str, ...] | None = None
        for call in summary.calls:
            if call.node is site.node:
                held_here = call.held
                break
        if held_here is not None and identity in held_here:
            continue
        if _declares(summary.function, lock):
            continue
        if not _runs_locked(site.caller, identity, lock, graph, summaries,
                           stack | {qualname}):
            return False
    return True


def check_guarded_by(program: Program, graph: CallGraph,
                     summaries: dict[str, FunctionSummary]
                     ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        for cls in module.classes.values():
            locks = _visible_locks(cls, program)
            if not locks:
                continue
            guarded = _guarded_map(cls, locks, program, summaries)
            if not guarded:
                continue
            for method in cls.methods.values():
                if method.name in _CONSTRUCTORS:
                    continue
                summary = summaries.get(method.qualname)
                if summary is None:
                    continue
                for access in summary.accesses:
                    lock = guarded.get(access.attr)
                    if lock is None:
                        continue
                    identity = f"{locks[lock].qualname}.{lock}"
                    if identity in access.held:
                        continue
                    if _declares(method, lock):
                        continue
                    if _runs_locked(method.qualname, identity, lock, graph,
                                    summaries, frozenset()):
                        continue
                    action = "written" if access.write else "read"
                    yield Violation(
                        path=module.path,
                        line=getattr(access.node, "lineno", 1),
                        col=getattr(access.node, "col_offset", 0),
                        rule="RPR009",
                        message=(
                            f"'{cls.name}.{access.attr}' is guarded by "
                            f"'{lock}' but {action} in {method.name}() "
                            f"without it; wrap the access in 'with "
                            f"self.{lock}:', call it only with the lock "
                            f"held and rename the method with a '_locked' "
                            f"suffix, or annotate the def line with "
                            f"'# guarded-by: {lock}' (opt the attribute "
                            f"out with '# guarded-by: none' on its "
                            f"assignment)"))


# ----------------------------------------------------------------------
# RPR010 -- lock-order cycles
# ----------------------------------------------------------------------
def _transitive_acquires(qualname: str,
                         summaries: dict[str, FunctionSummary],
                         memo: dict[str, frozenset[str]],
                         stack: set[str]) -> frozenset[str]:
    cached = memo.get(qualname)
    if cached is not None:
        return cached
    if qualname in stack:
        return frozenset()
    stack.add(qualname)
    acquired: set[str] = set()
    summary = summaries.get(qualname)
    if summary is not None:
        acquired.update(acq.identity for acq in summary.acquires)
        for call in summary.calls:
            if call.callee is not None:
                acquired.update(_transitive_acquires(call.callee, summaries,
                                                     memo, stack))
    stack.discard(qualname)
    memo[qualname] = frozenset(acquired)
    return memo[qualname]


def _strongly_connected(nodes: list[str],
                        successors: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC over the lock-order graph (iterative, small graphs)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [
            (root, iter(sorted(successors.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (child, iter(sorted(successors.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def check_lock_order(program: Program, graph: CallGraph,
                     summaries: dict[str, FunctionSummary]
                     ) -> Iterator[Violation]:
    kinds: dict[str, str] = {}
    #: (held, acquired) -> first (path, line) where that ordering happened.
    edges: dict[tuple[str, str], tuple[str, int]] = {}
    memo: dict[str, frozenset[str]] = {}

    for module in _sorted_modules(program):
        for function in module.all_functions.values():
            summary = summaries[function.qualname]
            for acquire in summary.acquires:
                kinds.setdefault(acquire.identity, acquire.kind)
                site = (module.path, getattr(acquire.node, "lineno", 1))
                if acquire.identity in acquire.held:
                    if acquire.kind == "Lock":
                        yield Violation(
                            path=site[0], line=site[1],
                            col=getattr(acquire.node, "col_offset", 0),
                            rule="RPR010",
                            message=(
                                f"'{acquire.identity}' is a "
                                f"non-reentrant threading.Lock acquired "
                                f"while already held ({function.name}() "
                                f"nests it): this self-deadlocks at "
                                f"runtime; use an RLock or restructure "
                                f"so the lock is taken once"))
                    continue
                for held in acquire.held:
                    edges.setdefault((held, acquire.identity), site)
            for call in summary.calls:
                if not call.held or call.callee is None:
                    continue
                site = (module.path, getattr(call.node, "lineno", 1))
                for acquired in sorted(
                        _transitive_acquires(call.callee, summaries, memo,
                                             set())):
                    for held in call.held:
                        if held != acquired:
                            edges.setdefault((held, acquired), site)

    successors: dict[str, set[str]] = {}
    for held, acquired in edges:
        successors.setdefault(held, set()).add(acquired)
    nodes = sorted(set(kinds) | set(successors))
    for component in _strongly_connected(nodes, successors):
        if len(component) < 2:
            continue
        members = set(component)
        cycle_edges = sorted(
            ((site, pair) for pair, site in edges.items()
             if pair[0] in members and pair[1] in members),
            key=lambda entry: entry[0])
        (path, line), _ = cycle_edges[0]
        ordering = " -> ".join(sorted(members))
        sites = "; ".join(
            f"{pair[1]} taken at {site[0]}:{site[1]} while holding {pair[0]}"
            for site, pair in cycle_edges[:4])
        yield Violation(
            path=path, line=line, col=0, rule="RPR010",
            message=(
                f"lock-order cycle (potential deadlock) between "
                f"{ordering}: {sites}; pick one global acquisition "
                f"order and take the locks in that order everywhere"))
