"""Command-line entry point: ``python -m tools.repro_lint [paths...]``.

Exit codes: 0 clean, 1 violations found (or suppression budget exceeded),
2 usage/IO/parse error (the same convention ruff uses, so CI treats the
two linters identically).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections.abc import Sequence

from tools.repro_lint.engine import LintResult, run_paths
from tools.repro_lint.flow import FLOW_RULES
from tools.repro_lint.reporting import render_json, render_text
from tools.repro_lint.rules import RULES

__all__ = ["main"]

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description=("repo-specific static analysis: concurrency, "
                     "determinism and numeric contracts the test suite "
                     "cannot see (see docs/static_analysis.md)"))
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is schema-stable; default: text)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=("worker processes for the per-file pass "
              "(0 = one per CPU; default: 1)"))
    parser.add_argument(
        "--suppression-budget", metavar="FILE",
        help=("JSON file mapping path prefixes to the allowed number of "
              "'# repro-lint: disable=' waivers beneath them; exceeding a "
              "budget fails the run (update the file in the same PR to "
              "raise it deliberately)"))
    parser.add_argument(
        "--changed-only", action="store_true",
        help=("lint only files that differ from "
              "'git merge-base HEAD origin/main' (falls back to 'main', "
              "then HEAD); the flow pass still analyzes the whole scanned "
              "set so interprocedural findings stay sound, but only "
              "changed files are reported -- the fast pre-push mode"))
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (per-file and flow) and exit")
    return parser


def _git_lines(*args: str) -> list[str]:
    completed = subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True)
    return [line for line in completed.stdout.splitlines() if line.strip()]


def _changed_files() -> set[str]:
    """Paths changed vs the merge base with the main branch (plus any
    uncommitted changes), for ``--changed-only``."""
    base = "HEAD"
    for upstream in ("origin/main", "main"):
        try:
            base = _git_lines("merge-base", "HEAD", upstream)[0]
            break
        except (subprocess.CalledProcessError, IndexError, OSError):
            continue
    changed = _git_lines("diff", "--name-only", base)
    changed += _git_lines("ls-files", "--others", "--exclude-standard")
    return set(changed)


def _list_rules() -> str:
    lines: list[str] = []
    for rule in [*RULES, *FLOW_RULES]:
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    motivation: {rule.motivation}")
    return "\n".join(lines)


def _budget_overruns(result: LintResult, budget_path: str) -> list[str]:
    """Human-readable overrun messages (empty if within budget).

    Keys are path prefixes (``"src"``) or rule-id prefixes (``"RPR013"``,
    ``"RPR01"``); a rule key caps the honored waivers naming any matching
    rule, anywhere in the tree.
    """
    with open(budget_path, encoding="utf-8") as handle:
        budget = json.load(handle)
    overruns: list[str] = []
    for prefix in sorted(budget):
        allowed = int(budget[prefix])
        if prefix.startswith("RPR"):
            actual = sum(
                count for rule, count in result.waivers_by_rule.items()
                if rule.startswith(prefix))
            subject = f"for rule prefix {prefix!r}"
        else:
            normalized = prefix.rstrip("/")
            actual = sum(
                count for path, count in result.waivers_by_path.items()
                if path == normalized or path.startswith(normalized + "/"))
            subject = f"under {normalized!r}"
        if actual > allowed:
            overruns.append(
                f"suppression budget exceeded {subject}: "
                f"{actual} waiver(s), budget allows {allowed}; remove the "
                f"new '# repro-lint: disable=' comments or update "
                f"{budget_path} in the same PR with the rationale")
    return overruns


def main(argv: Sequence[str] | None = None) -> int:
    arguments = _build_parser().parse_args(argv)
    if arguments.list_rules:
        print(_list_rules())
        return 0
    if arguments.jobs < 0:
        print("repro-lint: error: --jobs must be >= 0", file=sys.stderr)
        return 2
    restrict = None
    if arguments.changed_only:
        try:
            restrict = _changed_files()
        except (subprocess.CalledProcessError, OSError) as exc:
            print(f"repro-lint: error: --changed-only needs a git "
                  f"checkout: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_paths(arguments.paths, jobs=arguments.jobs,
                           restrict=restrict)
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    exit_code = result.exit_code
    if arguments.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    if arguments.suppression_budget:
        try:
            overruns = _budget_overruns(result, arguments.suppression_budget)
        except (OSError, ValueError) as exc:
            print(f"repro-lint: error: cannot read suppression budget: "
                  f"{exc}", file=sys.stderr)
            return 2
        for message in overruns:
            print(f"repro-lint: {message}", file=sys.stderr)
        if overruns:
            exit_code = max(exit_code, 1)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
