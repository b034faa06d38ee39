"""Text and JSON reporters for repro-lint results.

The JSON payload is a stable machine interface (CI annotations, the
perf/quality dashboards of ROADMAP item 4 consume it): its top-level keys
and per-violation keys are asserted by ``tests/tools/test_repro_lint.py``,
so extend it by *adding* keys, never by renaming or removing them --
``schema_version`` only bumps on a breaking change.
"""

from __future__ import annotations

import json
from typing import Any

from tools.repro_lint.engine import LintResult

__all__ = ["SCHEMA_VERSION", "render_json", "render_text", "to_json_payload"]

SCHEMA_VERSION = 1


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``path:line:col: RULE message`` per finding."""
    lines = [
        f"{violation.path}:{violation.line}:{violation.col}: "
        f"{violation.rule} {violation.message}"
        for violation in result.violations
    ]
    if result.violations:
        counts = ", ".join(f"{rule} x{count}" for rule, count
                           in result.counts_by_rule().items())
        lines.append(f"repro-lint: {len(result.violations)} violation(s) "
                     f"in {result.files_checked} file(s) checked ({counts})")
    else:
        lines.append(f"repro-lint: clean "
                     f"({result.files_checked} file(s) checked)")
    if result.parse_failures:
        lines.append(f"repro-lint: {result.parse_failures} file(s) could "
                     f"not be parsed (exit 2)")
    return "\n".join(lines)


def to_json_payload(result: LintResult) -> dict[str, Any]:
    """The dict behind ``--format=json``; see the module docstring contract."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "repro-lint",
        "files_checked": result.files_checked,
        "exit_code": result.exit_code,
        # The flow pass always runs; the key stays for schema stability.
        "flow": True,
        "parse_failures": result.parse_failures,
        "suppression_counts": dict(sorted(result.waivers_by_path.items())),
        "suppression_counts_by_rule": dict(
            sorted(result.waivers_by_rule.items())),
        "counts_by_rule": result.counts_by_rule(),
        # Float32-readiness inventory from the numerics pass; see
        # docs/static_analysis.md for the schema.
        "dtype_surface": result.dtype_surface,
        "violations": [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "rule": violation.rule,
                "message": violation.message,
            }
            for violation in result.violations
        ],
    }


def render_json(result: LintResult) -> str:
    return json.dumps(to_json_payload(result), indent=2, sort_keys=True)
