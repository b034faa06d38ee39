"""Tests for the whole-program flow pass (``tools/repro_lint/flow``).

Each concurrency flow rule (RPR009-011) is exercised against its good/bad
fixture pair and against targeted inline programs (escape hatches,
interprocedural proofs, cross-file resolution).
"""

import json
import textwrap
from pathlib import Path

import pytest

from tools.repro_lint import run_paths
from tools.repro_lint.cli import main
from tools.repro_lint.engine import ENGINE_RULE_ID
from tools.repro_lint.flow import FLOW_RULE_IDS, FLOW_RULES
from tools.repro_lint.reporting import to_json_payload

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: rule id -> (bad fixture, good fixture, expected finding count in bad).
FLOW_FIXTURE_PAIRS = {
    "RPR009": ("rpr009_bad.py", "rpr009_good.py", 3),
    "RPR010": ("rpr010_bad.py", "rpr010_good.py", 2),
    "RPR011": ("rpr011_bad.py", "rpr011_good.py", 3),
}

#: The seeded bug classes from the issue, each caught by its intended rule.
SEEDED_BUGS = {
    "unguarded ring-buffer write": ("rpr009_bad.py", "RPR009"),
    "two-cache lock inversion": ("rpr010_bad.py", "RPR010"),
    "post-submit mutation": ("rpr011_bad.py", "RPR011"),
}


def lint_flow(*names, jobs=1):
    return run_paths([str(FIXTURES / name) for name in names], jobs=jobs)


def lint_source(tmp_path, source, name="prog.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_paths([str(path)])


class TestFlowFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FLOW_FIXTURE_PAIRS))
    def test_bad_fixture_fires(self, rule_id):
        bad, _good, expected_count = FLOW_FIXTURE_PAIRS[rule_id]
        violations = lint_flow(bad).violations
        fired = [v for v in violations if v.rule == rule_id]
        assert len(fired) == expected_count, (
            f"{bad} should trip {rule_id} x{expected_count}, got: "
            f"{[(v.rule, v.line) for v in violations]}")
        assert all(len(v.message) > 40 for v in fired)

    @pytest.mark.parametrize("rule_id", sorted(FLOW_FIXTURE_PAIRS))
    def test_good_fixture_stays_quiet(self, rule_id):
        _bad, good, _count = FLOW_FIXTURE_PAIRS[rule_id]
        violations = lint_flow(good).violations
        assert violations == [], (
            f"{good} should be clean, got: "
            f"{[(v.rule, v.line, v.message) for v in violations]}")

    @pytest.mark.parametrize("bug", sorted(SEEDED_BUGS))
    def test_seeded_bug_caught_by_intended_rule(self, bug):
        fixture, rule_id = SEEDED_BUGS[bug]
        fired = {v.rule for v in lint_flow(fixture).violations}
        assert rule_id in fired, f"{bug} ({fixture}) must be caught by {rule_id}"
        assert fired == {rule_id}, (
            f"{fixture} should only trip {rule_id}, got {sorted(fired)}")

    def test_flow_rule_metadata_is_complete(self):
        assert FLOW_RULE_IDS == {"RPR009", "RPR010", "RPR011", "RPR013",
                                 "RPR014", "RPR015", "RPR016", "RPR017",
                                 "RPR019"}
        for rule in FLOW_RULES:
            assert rule.id.startswith("RPR") and len(rule.id) == 6
            assert rule.name and rule.summary and rule.motivation


class TestGuardedByInference:
    def test_subclass_write_of_inherited_guard_fires(self):
        fixture = FIXTURES / "rpr009_inherited_bad.py"
        flagged = [number for number, line in enumerate(
            fixture.read_text(encoding="utf-8").splitlines(), start=1)
            if "# RPR009" in line]
        violations = lint_flow(fixture.name).violations
        assert [(v.rule, v.line) for v in violations] == [
            ("RPR009", line) for line in flagged]
        assert flagged

    def test_subclasses_under_inherited_lock_stay_quiet(self):
        violations = lint_flow("rpr009_inherited_good.py").violations
        assert violations == [], [(v.rule, v.line, v.message)
                                  for v in violations]

    def test_interprocedural_locked_caller_proof(self, tmp_path):
        result = lint_source(tmp_path, """\
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _evict(self):
                    self._items.clear()

                def reset(self):
                    with self._lock:
                        self._evict()
            """)
        assert result.violations == []

    def test_unlocked_caller_breaks_the_proof(self, tmp_path):
        result = lint_source(tmp_path, """\
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _evict(self):
                    self._items.clear()

                def reset(self):
                    with self._lock:
                        self._evict()

                def reset_unlocked(self):
                    self._evict()
            """)
        assert [v.rule for v in result.violations] == ["RPR009"]

    def test_locked_suffix_escape_hatch(self, tmp_path):
        result = lint_source(tmp_path, """\
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _evict_locked(self):
                    self._items.clear()
            """)
        assert result.violations == []

    def test_guarded_by_def_annotation(self, tmp_path):
        result = lint_source(tmp_path, """\
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _evict(self):  # guarded-by: _lock
                    self._items.clear()
            """)
        assert result.violations == []

    def test_guarded_by_none_opts_an_attribute_out(self, tmp_path):
        result = lint_source(tmp_path, """\
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: none

                def peek(self):
                    return list(self._items)
            """)
        assert result.violations == []

    def test_inline_suppression_silences_a_flow_finding(self, tmp_path):
        result = lint_source(tmp_path, """\
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def peek(self):
                    return list(self._items)  # repro-lint: disable=RPR009 -- benign racy len estimate
            """)
        assert result.violations == []


class TestLockOrder:
    def test_cross_file_lock_inversion(self, tmp_path):
        (tmp_path / "a.py").write_text(textwrap.dedent("""\
            import threading
            import b

            LOCK_A = threading.Lock()

            def take_a():
                with LOCK_A:
                    pass

            def a_then_b():
                with LOCK_A:
                    b.take_b()
            """), encoding="utf-8")
        (tmp_path / "b.py").write_text(textwrap.dedent("""\
            import threading
            import a

            LOCK_B = threading.Lock()

            def take_b():
                with LOCK_B:
                    pass

            def b_then_a():
                with LOCK_B:
                    a.take_a()
            """), encoding="utf-8")
        result = run_paths([str(tmp_path)])
        assert [v.rule for v in result.violations] == ["RPR010"]
        assert "LOCK_A" in result.violations[0].message
        assert "LOCK_B" in result.violations[0].message


class TestExecutorEscape:
    def test_keyword_captured_argument_is_checked(self, tmp_path):
        result = lint_source(tmp_path, """\
            def run(executor, task, items):
                pending = list(items)
                future = executor.submit(task, batch=pending)
                pending.append(None)
                return future
            """)
        assert [v.rule for v in result.violations] == ["RPR011"]

    def test_thread_pool_nested_class_is_not_a_pickling_hazard(self, tmp_path):
        result = lint_source(tmp_path, """\
            from concurrent.futures import ThreadPoolExecutor

            def run(task, values):
                class Job:
                    def __init__(self, payload):
                        self.payload = payload

                with ThreadPoolExecutor() as pool:
                    return pool.submit(task, Job(values)).result()
            """)
        assert result.violations == []


class TestProcpoolSubmission:
    """The pool's shard submission is the one pickling executor in
    ``src/``: the executor rules must prove it without a waiver."""

    PROCPOOL = REPO_ROOT / "src" / "repro" / "api" / "_procpool.py"

    def test_shard_submission_is_proven_without_suppression(self):
        source = self.PROCPOOL.read_text(encoding="utf-8")
        assert "repro-lint: disable" not in source
        result = run_paths([str(self.PROCPOOL)])
        assert [v for v in result.violations
                if v.rule in {"RPR005", "RPR011"}] == []

    def test_waiver_naming_the_retired_shm_rule_is_reported(self, tmp_path):
        # RPR012 left with the shared-memory transport; a waiver that still
        # names it waives nothing and must not linger unnoticed.
        result = lint_source(tmp_path, """\
            def run(executor, task, items):
                return executor.submit(task, list(items))  # repro-lint: disable=RPR012 -- retired
            """)
        assert [(v.rule, v.line) for v in result.violations] \
            == [(ENGINE_RULE_ID, 2)]
        assert "unknown rule(s) RPR012" in result.violations[0].message


class TestEngineModes:
    def test_parallel_jobs_match_serial_results(self):
        names = [bad for bad, _good, _n in FLOW_FIXTURE_PAIRS.values()]
        names += [good for _bad, good, _n in FLOW_FIXTURE_PAIRS.values()]
        serial = lint_flow(*names, jobs=1)
        parallel = lint_flow(*names, jobs=2)
        assert serial.violations == parallel.violations
        assert serial.files_checked == parallel.files_checked == len(names)

    def test_unparseable_file_reports_path_and_exits_2(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n", encoding="utf-8")
        result = run_paths([str(broken)])
        assert result.exit_code == 2
        assert result.parse_failures == 1
        assert [v.rule for v in result.violations] == [ENGINE_RULE_ID]
        assert main([str(broken)]) == 2
        out = capsys.readouterr().out
        assert "broken.py" in out
        assert "could not be parsed" in out

    def test_json_payload_carries_flow_fields(self):
        payload = to_json_payload(lint_flow("suppressed.py"))
        assert payload["flow"] is True
        assert payload["parse_failures"] == 0
        counts = payload["suppression_counts"]
        assert list(counts.values()) == [1]
        assert next(iter(counts)).endswith("suppressed.py")


class TestSuppressionBudget:
    def _budget(self, tmp_path, limit):
        budget = tmp_path / "budget.json"
        prefix = (FIXTURES / "suppressed.py").parent.as_posix()
        budget.write_text(json.dumps({prefix: limit}), encoding="utf-8")
        return str(budget)

    def test_within_budget_passes(self, tmp_path, capsys):
        code = main([str(FIXTURES / "suppressed.py"),
                     "--suppression-budget", self._budget(tmp_path, 1)])
        assert code == 0
        assert "budget" not in capsys.readouterr().err

    def test_exceeded_budget_fails(self, tmp_path, capsys):
        code = main([str(FIXTURES / "suppressed.py"),
                     "--suppression-budget", self._budget(tmp_path, 0)])
        assert code == 1
        err = capsys.readouterr().err
        assert "suppression budget exceeded" in err
        assert "budget.json" in err

    def test_unreadable_budget_is_a_usage_error(self, tmp_path, capsys):
        code = main([str(FIXTURES / "suppressed.py"),
                     "--suppression-budget", str(tmp_path / "missing.json")])
        assert code == 2
        assert "suppression budget" in capsys.readouterr().err

    def test_committed_budget_matches_the_tree(self):
        budget_path = REPO_ROOT / "tools" / "repro_lint" / \
            "suppression_budget.json"
        budget = json.loads(budget_path.read_text(encoding="utf-8"))
        path_keys = {key for key in budget if not key.startswith("RPR")}
        rule_keys = set(budget) - path_keys
        assert path_keys == {"src", "tests", "benchmarks"}
        assert rule_keys == {"RPR013", "RPR014", "RPR015", "RPR016",
                             "RPR017", "RPR018"}
        result = run_paths([str(REPO_ROOT / prefix)
                            for prefix in sorted(path_keys)])
        for prefix in sorted(path_keys):
            allowed = budget[prefix]
            actual = sum(
                count for path, count in result.waivers_by_path.items()
                if f"/{prefix}/" in path or path.startswith(f"{prefix}/"))
            assert actual <= allowed, (
                f"{actual} waiver(s) under {prefix}/ exceed the committed "
                f"budget of {allowed}; remove them or update "
                f"tools/repro_lint/suppression_budget.json deliberately")
        for prefix in sorted(rule_keys):
            actual = sum(count for rule, count
                         in result.waivers_by_rule.items()
                         if rule.startswith(prefix))
            assert actual <= budget[prefix], (
                f"{actual} waiver(s) naming {prefix} exceed the committed "
                f"budget of {budget[prefix]}; fix the finding instead of "
                f"waiving a numerics rule")
