#!/usr/bin/env bash
# Run the repo's three static-analysis gates in the same order CI does:
#
#   1. ruff        (generic defects: F/E4/E7/E9 + bugbear + pyupgrade)
#   2. repro-lint  (repo-specific per-file rules + whole-program flow
#                   pass, concurrency RPR009-011 + numerics RPR013-017,
#                   + suppression budget; pure stdlib, always runs)
#   3. mypy        (strict-ish typing on repro.api + repro.core)
#
# ruff and mypy are optional locally (the dev container may not ship
# them); a missing tool is skipped with a warning instead of failing,
# since CI still enforces it.  repro-lint has no dependencies and is
# never skipped.  See docs/static_analysis.md.
set -u
cd "$(dirname "$0")/.."

failures=0

run_gate() {
    local name="$1"; shift
    echo "==> ${name}: $*"
    if "$@"; then
        echo "==> ${name}: OK"
    else
        echo "==> ${name}: FAILED"
        failures=$((failures + 1))
    fi
    echo
}

if command -v ruff >/dev/null 2>&1; then
    run_gate "ruff" ruff check src tests benchmarks examples
else
    echo "==> ruff: not installed locally, skipping (CI enforces it)"
    echo
fi

run_gate "repro-lint" python -m tools.repro_lint --jobs 0 \
    --suppression-budget tools/repro_lint/suppression_budget.json \
    src tests benchmarks examples

if python -c "import mypy" >/dev/null 2>&1; then
    run_gate "mypy" python -m mypy --config-file mypy.ini
else
    echo "==> mypy: not installed locally, skipping (CI enforces it)"
    echo
fi

if [ "${failures}" -ne 0 ]; then
    echo "lint: ${failures} gate(s) failed"
    exit 1
fi
echo "lint: all available gates passed"
