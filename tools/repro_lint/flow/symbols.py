"""Pass 1 of the whole-program analysis: the cross-file symbol table.

This module turns a set of parsed files into a :class:`Program`: per-module
models (classes, functions incl. nested ones, module-level locks, comments)
plus the per-class *attribute model* the flow rules build on -- which
attributes are locks, which are containers, and which carry an explicit
``# guarded-by:`` annotation.

Name resolution is deliberately approximate (and documented as such in
``docs/static_analysis.md``): modules are matched by dotted-suffix, so
``from repro.core.cache import SteeringCache`` resolves whether the file was
scanned as ``src/repro/core/cache.py`` or from an absolute path, and a
lookup that is not *unique* resolves to nothing rather than guessing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from tools.repro_lint.engine import ModuleContext

__all__ = [
    "ClassModel",
    "FunctionModel",
    "ModuleModel",
    "Program",
    "build_program",
    "module_name_for_path",
]

#: ``# guarded-by: <lock>`` attribute/method annotation.  ``none`` opts an
#: attribute out of guarded-by inference; on a ``def`` line the named lock
#: is declared to be held by every caller (same contract as a ``_locked``
#: name suffix).  Prose after the name is allowed and encouraged.
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*|none)")

_LOCK_FACTORY_SUFFIXES = ("threading.Lock", "threading.RLock")
_CONTAINER_FACTORY_SUFFIXES = (
    "OrderedDict", "defaultdict", "deque", "dict", "list", "set", "Counter")
_CONTAINER_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp,
                       ast.SetComp, ast.DictComp)


@dataclass
class FunctionModel:
    """One function or method (including nested defs), with its contracts."""

    name: str
    qualname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None
    #: Lock names declared held by the caller (``# guarded-by:`` on the
    #: ``def`` line); ``("*",)`` for a ``_locked``-suffixed name.
    declared_locks: tuple[str, ...] = ()


@dataclass
class ClassModel:
    """One class and the attribute model the lock rules reason over."""

    name: str
    qualname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, FunctionModel] = field(default_factory=dict)
    #: Lock-typed ``self`` attributes: name -> ``"Lock"`` | ``"RLock"``.
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: ``self`` attributes assigned a mutable container in any method.
    container_attrs: set[str] = field(default_factory=set)
    #: Explicit ``# guarded-by:`` attribute annotations: attr -> lock name
    #: (or ``"none"`` to opt out of inference).
    annotations: dict[str, str] = field(default_factory=dict)
    #: False for classes defined inside a function (spawn cannot pickle
    #: their instances).
    module_level: bool = True
    has_reduce: bool = False


@dataclass
class ModuleModel:
    """Everything the flow pass knows about one parsed file."""

    path: str
    name: str
    context: ModuleContext
    #: All classes by bare name (module-level and nested; later defs win).
    classes: dict[str, ClassModel] = field(default_factory=dict)
    #: Module-level functions by bare name.
    functions: dict[str, FunctionModel] = field(default_factory=dict)
    #: Every function in the file by qualname (methods and nested defs too).
    all_functions: dict[str, FunctionModel] = field(default_factory=dict)
    #: Module-level names assigned ``threading.Lock()``/``RLock()``.
    module_locks: dict[str, str] = field(default_factory=dict)
    #: Comment text by line (for ``# guarded-by:`` annotations).
    comments: dict[int, str] = field(default_factory=dict)
    #: Innermost enclosing function of every node (nodes at class/module
    #: level are absent).
    owner: dict[ast.AST, FunctionModel] = field(default_factory=dict)


class Program:
    """The whole scanned file set, indexed for approximate resolution."""

    def __init__(self, modules: list[ModuleModel]) -> None:
        self.modules: dict[str, ModuleModel] = {
            module.name: module for module in modules}
        self.modules_by_path: dict[str, ModuleModel] = {
            module.path: module for module in modules}
        self.classes: dict[str, ClassModel] = {}
        self.functions: dict[str, FunctionModel] = {}
        for module in modules:
            for cls in module.classes.values():
                self.classes[cls.qualname] = cls
            self.functions.update(module.all_functions)
        self._lineages: dict[str, list[ClassModel]] = {}

    def lineage(self, cls: ClassModel) -> list[ClassModel]:
        """``cls``, then its base classes defined in the program.

        Depth first in base order, each class once, so the nearest
        definition of an attribute comes first.  ``Base[T]`` counts as
        ``Base``; bases outside the scanned files are skipped.
        """
        cached = self._lineages.get(cls.qualname)
        if cached is not None:
            return cached
        order: list[ClassModel] = []
        seen: set[str] = set()
        pending = [cls]
        while pending:
            current = pending.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            order.append(current)
            module = self.modules.get(current.module)
            bases = []
            for expr in current.node.bases:
                if isinstance(expr, ast.Subscript):
                    expr = expr.value
                base = self.resolve_class(
                    module.context.dotted_name(expr), module) \
                    if module is not None else None
                if base is not None:
                    bases.append(base)
            pending.extend(reversed(bases))
        self._lineages[cls.qualname] = order
        return order

    # ------------------------------------------------------------------
    # Approximate, suffix-based resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _suffix_lookup(table: dict[str, object], dotted: str) -> object | None:
        entry = table.get(dotted)
        if entry is not None:
            return entry
        suffix = "." + dotted
        matches = [value for qualname, value in table.items()
                   if qualname.endswith(suffix)]
        return matches[0] if len(matches) == 1 else None

    def resolve_class(self, dotted: str | None,
                      module: ModuleModel | None = None) -> ClassModel | None:
        """Resolve a dotted (or bare, module-local) name to a class."""
        if not dotted:
            return None
        if "." not in dotted:
            return module.classes.get(dotted) if module is not None else None
        resolved = self._suffix_lookup(self.classes, dotted)
        return resolved if isinstance(resolved, ClassModel) else None

    def resolve_function(self, dotted: str | None,
                         module: ModuleModel | None = None
                         ) -> FunctionModel | None:
        """Resolve a dotted (or bare, module-local) name to a function."""
        if not dotted:
            return None
        if "." not in dotted:
            return module.functions.get(dotted) if module is not None else None
        resolved = self._suffix_lookup(self.functions, dotted)
        return resolved if isinstance(resolved, FunctionModel) else None


def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a scanned path.

    Files under a ``src`` directory get their true import path (so
    ``src/repro/core/cache.py`` matches ``from repro.core.cache import``);
    everything else keeps its full path as a dotted name, which still
    supports the suffix-matched resolution above.
    """
    parts = list(PurePosixPath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    cleaned = [part for part in parts if part not in ("/", "\\", "")]
    return ".".join(part.replace(".", "_") for part in cleaned) or "module"


def _collect_comments(source: str) -> dict[int, str]:
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return {token.start[0]: token.string
                for token in tokens if token.type == tokenize.COMMENT}
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}


def _line_annotation(comments: dict[int, str], line: int) -> str | None:
    match = GUARDED_BY_RE.search(comments.get(line, ""))
    return match.group(1) if match else None


def _is_lock_factory(context: ModuleContext, value: ast.AST) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    dotted = context.resolve_call(value)
    if dotted is None:
        return None
    for suffix in _LOCK_FACTORY_SUFFIXES:
        if dotted == suffix or dotted.endswith("." + suffix):
            return suffix.rsplit(".", 1)[-1]
    # ``from threading import Lock`` resolves to ``threading.Lock`` via the
    # import map already; a bare local name is not treated as a lock.
    return None


def _is_container_factory(context: ModuleContext, value: ast.AST) -> bool:
    if isinstance(value, _CONTAINER_LITERALS):
        return True
    if not isinstance(value, ast.Call):
        return False
    dotted = context.resolve_call(value)
    if dotted is None:
        return False
    tail = dotted.rsplit(".", 1)[-1]
    return tail in _CONTAINER_FACTORY_SUFFIXES


def _self_attr_targets(node: ast.stmt) -> list[tuple[str, ast.AST]]:
    """``(attr, value)`` pairs for ``self.<attr> = value`` statements."""
    pairs: list[tuple[str, ast.AST]] = []
    targets: list[ast.AST] = []
    value: ast.AST | None = None
    if isinstance(node, ast.Assign):
        targets, value = list(node.targets), node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets, value = [node.target], node.value
    if value is None:
        return pairs
    for target in targets:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            pairs.append((target.attr, value))
    return pairs


def _declared_locks(name: str, comments: dict[int, str],
                    node: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> tuple[str, ...]:
    if name.endswith("_locked"):
        return ("*",)
    annotation = _line_annotation(comments, node.lineno)
    if annotation and annotation != "none":
        return (annotation,)
    return ()


class _ModuleBuilder(ast.NodeVisitor):
    """Single walk collecting functions, classes and node ownership.

    ``_scopes`` mirrors the lexical nesting: each entry is ``("class", cls)``
    or ``("function", fn)``, so a def whose innermost scope is a class is a
    method of exactly that class.
    """

    def __init__(self, model: ModuleModel) -> None:
        self.model = model
        self._scopes: list[tuple[str, ClassModel | FunctionModel]] = []
        self._qual_stack: list[str] = [model.name]

    # -- helpers -------------------------------------------------------
    def _qualname(self, name: str) -> str:
        return ".".join([*self._qual_stack, name])

    def _enclosing_function(self) -> FunctionModel | None:
        for kind, scope in reversed(self._scopes):
            if kind == "function":
                assert isinstance(scope, FunctionModel)
                return scope
        return None

    def _record_owner(self, node: ast.AST) -> None:
        owner = self._enclosing_function()
        if owner is not None:
            self.model.owner[node] = owner

    def generic_visit(self, node: ast.AST) -> None:
        self._record_owner(node)
        super().generic_visit(node)

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._record_owner(node)
        cls = ClassModel(
            name=node.name,
            qualname=self._qualname(node.name),
            module=self.model.name,
            node=node,
            module_level=not self._scopes,
        )
        self.model.classes[node.name] = cls
        self._scopes.append(("class", cls))
        self._qual_stack.append(node.name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._qual_stack.pop()
        self._scopes.pop()

    def _visit_function(self,
                        node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._record_owner(node)
        owning_class = (self._scopes[-1][1]
                        if self._scopes and self._scopes[-1][0] == "class"
                        else None)
        function = FunctionModel(
            name=node.name,
            qualname=self._qualname(node.name),
            module=self.model.name,
            node=node,
            class_qualname=(owning_class.qualname
                            if isinstance(owning_class, ClassModel) else None),
            declared_locks=_declared_locks(node.name, self.model.comments,
                                           node),
        )
        self.model.all_functions[function.qualname] = function
        if isinstance(owning_class, ClassModel):
            owning_class.methods[node.name] = function
            if node.name in ("__reduce__", "__reduce_ex__", "__getstate__"):
                owning_class.has_reduce = True
        elif not self._scopes:
            self.model.functions[node.name] = function
        self._scopes.append(("function", function))
        self._qual_stack.append(node.name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._qual_stack.pop()
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


def _populate_class_attributes(model: ModuleModel) -> None:
    context = model.context
    for cls in model.classes.values():
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                # Only attribute assignments made directly in this class's
                # methods count (nested defs keep their own ``self``).
                if model.owner.get(node) is not method:
                    continue
                for attr, value in _self_attr_targets(node):
                    kind = _is_lock_factory(context, value)
                    if kind is not None:
                        cls.lock_attrs[attr] = kind
                    elif _is_container_factory(context, value):
                        cls.container_attrs.add(attr)
                    annotation = _line_annotation(model.comments, node.lineno)
                    if annotation is not None:
                        cls.annotations[attr] = annotation


def _populate_module_locks(model: ModuleModel) -> None:
    for node in model.context.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            kind = _is_lock_factory(model.context, node.value)
            if kind is not None:
                model.module_locks[node.targets[0].id] = kind


def build_module(path: str, source: str, tree: ast.Module) -> ModuleModel:
    """Build one file's model (already-parsed tree)."""
    context = ModuleContext(path, source, tree)
    model = ModuleModel(path=path, name=module_name_for_path(path),
                        context=context, comments=_collect_comments(source))
    _ModuleBuilder(model).visit(tree)
    _populate_class_attributes(model)
    _populate_module_locks(model)
    return model


def build_program(files: list[tuple[str, str]]) -> Program:
    """Parse ``(path, source)`` pairs into a :class:`Program`.

    Files that fail to parse are skipped here: the per-file pass already
    reported them (and drove the exit code to 2).
    """
    modules: list[ModuleModel] = []
    for path, source in files:
        try:
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError):
            continue
        modules.append(build_module(path, source, tree))
    return Program(modules)
