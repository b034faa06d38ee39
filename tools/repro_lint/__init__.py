"""repro-lint: repo-specific static analysis for concurrency/determinism/numeric contracts.

Every rule encodes a bug class this codebase has actually shipped (and fixed
by hand) in PRs 1-6; the linter keeps those fixes from regressing.  See
``docs/static_analysis.md`` for the rule catalogue and
``tools/repro_lint/rules.py`` for the implementations.

Usage::

    python -m tools.repro_lint src tests benchmarks
    python -m tools.repro_lint --format=json src
    python -m tools.repro_lint --list-rules

Suppress a single finding inline, with a mandatory reason::

    risky_call()  # repro-lint: disable=RPR011 -- batch is frozen before submit
"""

from tools.repro_lint.engine import (
    LintResult,
    Violation,
    check_source,
    iter_python_files,
    run_paths,
)
from tools.repro_lint.rules import RULES, Rule

__all__ = [
    "LintResult",
    "RULES",
    "Rule",
    "Violation",
    "check_source",
    "iter_python_files",
    "run_paths",
]

__version__ = "1.0.0"
