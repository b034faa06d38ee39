"""Core of repro-lint: per-file analysis, suppressions, file walking.

The engine parses each file once with the stdlib ``ast`` module, wraps the
tree in a :class:`ModuleContext` (parent links plus an import-alias map so
rules can resolve ``np.arange`` and friends to dotted names), runs every
per-file rule, and then filters the findings through the file's inline
suppression comments.  A second, whole-program pass
(``tools.repro_lint.flow``) then runs the RPR009-011, RPR013-017 and RPR019
rules over the same file set; the per-file pass can fan out over worker
processes (``jobs``) while the flow pass always runs in the parent.

Suppression syntax (same line as the finding)::

    some_call()  # repro-lint: disable=RPR001 -- reason why this is safe

The reason after ``--`` is mandatory: a suppression without one is itself
reported as ``RPR000`` and does **not** silence anything, so every waiver in
the tree documents why the contract does not apply.
"""

from __future__ import annotations

import ast
import concurrent.futures
import io
import multiprocessing
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "DEFAULT_EXCLUDED_DIRS",
    "LintResult",
    "ModuleContext",
    "Violation",
    "check_source",
    "iter_python_files",
    "run_paths",
]

#: Directory names skipped while walking a directory argument.  ``fixtures``
#: is excluded because the linter's own test fixtures intentionally contain
#: violations; explicitly named files are always checked regardless.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".hg", ".venv", "build", "dist", "fixtures"})

#: Rule id of engine-level findings (syntax errors, malformed suppressions).
ENGINE_RULE_ID = "RPR000"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:--\s*(.*))?$")


@dataclass(frozen=True)
class Violation:
    """One finding: where it is, which rule fired, and what to do instead."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class _Suppression:
    line: int
    rules: tuple[str, ...]
    reason: str | None


@dataclass
class _FileOutcome:
    """Everything the per-file pass learned about one file (picklable, so
    ``--jobs`` workers can ship it back whole)."""

    path: str
    source: str | None
    violations: list[Violation]
    suppressions: list[_Suppression]
    parse_failed: bool = False

    @property
    def waiver_count(self) -> int:
        return len(self.suppressions)


@dataclass
class LintResult:
    """Aggregated outcome of one linter run."""

    violations: list[Violation]
    files_checked: int
    parse_failures: int = 0
    #: Files with at least one ``# repro-lint: disable=`` waiver -> count
    #: (the CLI's suppression budget sums these per top-level directory).
    waivers_by_path: dict[str, int] = field(default_factory=dict)
    #: Honored-waiver counts per rule id (``RPR...`` suppression-budget
    #: keys compare against these).
    waivers_by_rule: dict[str, int] = field(default_factory=dict)
    #: The numerics pass's float32-readiness inventory; see
    #: ``tools.repro_lint.numerics.surface``.
    dtype_surface: dict[str, object] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.parse_failures:
            return 2  # usage/IO/parse error, same convention as ruff
        return 1 if self.violations else 0

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return dict(sorted(counts.items()))


class ModuleContext:
    """Everything a rule needs about one parsed file.

    Attributes
    ----------
    path:
        Path of the file as given on the command line (posix separators).
    tree:
        The parsed module.
    parents:
        Child-to-parent node map over the whole tree.
    imports:
        Local name -> dotted origin, e.g. ``{"np": "numpy",
        "inv": "numpy.linalg.inv"}``; used by :meth:`resolve_call`.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.imports = _import_map(tree)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def dotted_name(self, node: ast.AST) -> str | None:
        """Flatten a ``Name``/``Attribute`` chain and resolve import aliases.

        ``np.linalg.inv`` becomes ``numpy.linalg.inv`` when ``np`` aliases
        ``numpy``; returns None for expressions that are not plain chains
        (calls, subscripts, ...).
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        origin = self.imports.get(parts[0])
        if origin is not None:
            parts[0] = origin
        return ".".join(parts)

    def resolve_call(self, call: ast.Call) -> str | None:
        """Dotted name of a call's target, alias-resolved (or None)."""
        return self.dotted_name(call.func)

    # ------------------------------------------------------------------
    # Ancestry helpers
    # ------------------------------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing(self, node: ast.AST,
                  kinds: tuple[type[ast.AST], ...]) -> ast.AST | None:
        """Nearest ancestor of one of ``kinds`` (None if there is none)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, kinds):
                return ancestor
        return None

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        return self.enclosing(
            node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _import_map(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds the
                # full dotted path to ``c``.
                imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _known_rule_ids() -> set[str]:
    """Every valid suppression target: per-file rules plus flow rules."""
    from tools.repro_lint.flow import FLOW_RULE_IDS
    from tools.repro_lint.rules import RULES

    return {rule.id for rule in RULES} | set(FLOW_RULE_IDS)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def _parse_suppressions(source: str) -> tuple[list[_Suppression], list[tuple[int, str]]]:
    """Extract suppression comments; returns (suppressions, parse_errors)."""
    suppressions: list[_Suppression] = []
    errors: list[tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(token.start[0], token.string)
                    for token in tokens if token.type == tokenize.COMMENT]
    except tokenize.TokenError:  # unterminated string etc.; ast will report
        comments = []
    for line, text in comments:
        # Only ``repro-lint:`` (with the colon) is directive syntax; prose
        # comments may freely mention rule ids ("... (repro-lint RPR001)").
        if re.search(r"repro-lint\s*:", text) is None:
            continue
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            errors.append((line, f"malformed repro-lint comment: {text.strip()!r}"))
            continue
        rules = tuple(rule.strip().upper()
                      for rule in match.group(1).split(",") if rule.strip())
        reason = (match.group(2) or "").strip() or None
        suppressions.append(_Suppression(line=line, rules=rules, reason=reason))
    return suppressions, errors


def _honored_by_line(suppressions: list[_Suppression],
                     known_rules: set[str]) -> dict[int, set[str]]:
    honored: dict[int, set[str]] = {}
    for suppression in suppressions:
        if suppression.reason is None:
            continue
        valid = {rule for rule in suppression.rules if rule in known_rules}
        if valid:
            honored.setdefault(suppression.line, set()).update(valid)
    return honored


def _apply_suppressions(path: str, violations: list[Violation],
                        suppressions: list[_Suppression],
                        known_rules: set[str]) -> list[Violation]:
    kept: list[Violation] = []
    for suppression in suppressions:
        if suppression.reason is None:
            kept.append(Violation(
                path=path, line=suppression.line, col=0, rule=ENGINE_RULE_ID,
                message=("suppression is missing its reason; write "
                         "'# repro-lint: disable=<RULE> -- <why this is "
                         "safe>' (an unexplained waiver is not honored)")))
            continue
        unknown = [rule for rule in suppression.rules
                   if rule not in known_rules]
        if unknown:
            kept.append(Violation(
                path=path, line=suppression.line, col=0, rule=ENGINE_RULE_ID,
                message=(f"suppression names unknown rule(s) "
                         f"{', '.join(unknown)}; known rules are "
                         f"{', '.join(sorted(known_rules))}")))
    honored = _honored_by_line(suppressions, known_rules)
    for violation in violations:
        if violation.rule in honored.get(violation.line, ()):
            continue
        kept.append(violation)
    return kept


def _silence(violations: Iterable[Violation],
             suppressions: list[_Suppression],
             known_rules: set[str]) -> list[Violation]:
    """Filter flow findings through a file's suppressions (no RPR000 here:
    the per-file pass already reported malformed/unknown waivers once)."""
    honored = _honored_by_line(suppressions, known_rules)
    return [violation for violation in violations
            if violation.rule not in honored.get(violation.line, ())]


# ----------------------------------------------------------------------
# Per-file / per-tree entry points
# ----------------------------------------------------------------------
def _analyze_source(path: str, source: str) -> _FileOutcome:
    """Run the per-file pass over one file's text."""
    from tools.repro_lint.rules import RULES

    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        # ValueError covers null bytes and other unparseable input.
        line = getattr(exc, "lineno", None) or 1
        offset = getattr(exc, "offset", None) or 1
        message = getattr(exc, "msg", None) or str(exc)
        return _FileOutcome(
            path=path, source=source, parse_failed=True, suppressions=[],
            violations=[Violation(path=path, line=line, col=offset - 1,
                                  rule=ENGINE_RULE_ID,
                                  message=f"syntax error: {message}")])
    context = ModuleContext(path, source, tree)
    violations: list[Violation] = []
    for rule in RULES:
        for line, col, message in rule.check(context):
            violations.append(Violation(path=path, line=line, col=col,
                                        rule=rule.id, message=message))
    suppressions, parse_errors = _parse_suppressions(source)
    for line, message in parse_errors:
        violations.append(Violation(path=path, line=line, col=0,
                                    rule=ENGINE_RULE_ID, message=message))
    violations = _apply_suppressions(path, violations, suppressions,
                                     _known_rule_ids())
    violations.sort(key=Violation.sort_key)
    return _FileOutcome(path=path, source=source, violations=violations,
                        suppressions=suppressions)


def check_source(path: str, source: str) -> list[Violation]:
    """Lint one file's source text; returns the surviving violations."""
    return _analyze_source(path, source).violations


def _lint_file(path: str) -> _FileOutcome:
    """Read and analyze one file; IO failures become reported findings."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _FileOutcome(
            path=path, source=None, parse_failed=True, suppressions=[],
            violations=[Violation(path=path, line=1, col=0,
                                  rule=ENGINE_RULE_ID,
                                  message=f"cannot read file: {exc}")])
    return _analyze_source(path, source)


def iter_python_files(paths: Sequence[str],
                      excluded_dirs: Iterable[str] = DEFAULT_EXCLUDED_DIRS
                      ) -> list[Path]:
    """Expand path arguments into the sorted list of ``.py`` files to lint.

    Directories are walked recursively, skipping ``excluded_dirs`` by name;
    files named explicitly are always included (that is how the test suite
    lints the intentionally-bad fixtures).
    """
    excluded = set(excluded_dirs)
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if excluded.intersection(candidate.parts):
                    continue
                files.append(candidate)
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    unique: list[Path] = []
    seen: set[Path] = set()
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _lint_files_parallel(paths: list[str], jobs: int) -> list[_FileOutcome]:
    """Fan the per-file pass out over worker processes, order-preserving."""
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: spawn works, just slower
        mp_context = multiprocessing.get_context()
    chunksize = max(1, len(paths) // (jobs * 4))
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=mp_context) as pool:
        return list(pool.map(_lint_file, paths, chunksize=chunksize))


def _read_for_flow(path: str) -> tuple[str, str] | None:
    """Source of a file the per-file pass skipped (``restrict``); the flow
    pass still needs the whole program for its symbol table."""
    try:
        return path, Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None


def run_paths(paths: Sequence[str],
              excluded_dirs: Iterable[str] = DEFAULT_EXCLUDED_DIRS,
              *, jobs: int = 1,
              restrict: Iterable[str] | None = None) -> LintResult:
    """Lint every python file under ``paths``; the CLI's workhorse.

    The per-file rules run first, then the whole-program flow pass
    (RPR009-011, RPR013-017 and RPR019).
    ``jobs`` > 1 runs the per-file pass in that many worker processes
    (0 = one per CPU); the flow pass always runs in the parent.
    ``restrict`` (``--changed-only``) limits the per-file pass and the
    *reported* findings to the given posix paths; the flow pass still
    analyzes the whole scanned set, so interprocedural proofs stay sound.
    """
    files = [path.as_posix() for path in
             iter_python_files(paths, excluded_dirs)]
    restricted = None if restrict is None \
        else {PurePath(path).as_posix() for path in restrict}
    lint_files = files if restricted is None \
        else [path for path in files if path in restricted]
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(lint_files) > 1:
        outcomes = _lint_files_parallel(lint_files,
                                        min(jobs, len(lint_files)))
    else:
        outcomes = [_lint_file(path) for path in lint_files]

    violations: list[Violation] = []
    for outcome in outcomes:
        violations.extend(outcome.violations)
    from tools.repro_lint.flow import run_flow

    known = _known_rule_ids()
    suppressions_by_path = {outcome.path: outcome.suppressions
                            for outcome in outcomes}
    flow_inputs = [(outcome.path, outcome.source)
                   for outcome in outcomes
                   if outcome.source is not None
                   and not outcome.parse_failed]
    outcome_paths = {outcome.path for outcome in outcomes}
    for path in files:
        if path not in outcome_paths:
            extra = _read_for_flow(path)
            if extra is not None:
                flow_inputs.append(extra)
    report = run_flow(flow_inputs)
    for violation in report.violations:
        if restricted is not None and violation.path not in restricted:
            continue
        kept = _silence(
            [violation],
            suppressions_by_path.get(violation.path, []), known)
        violations.extend(kept)
    violations.sort(key=Violation.sort_key)
    waivers_by_rule: dict[str, int] = {}
    for outcome in outcomes:
        for suppression in outcome.suppressions:
            if suppression.reason is None:
                continue
            for rule in suppression.rules:
                waivers_by_rule[rule] = waivers_by_rule.get(rule, 0) + 1
    return LintResult(
        violations=violations,
        files_checked=len(lint_files),
        parse_failures=sum(1 for outcome in outcomes if outcome.parse_failed),
        waivers_by_path={outcome.path: outcome.waiver_count
                        for outcome in outcomes if outcome.waiver_count},
        waivers_by_rule=dict(sorted(waivers_by_rule.items())),
        dtype_surface=report.dtype_surface)
