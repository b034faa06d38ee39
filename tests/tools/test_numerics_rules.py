"""Tests for the numerics flow pass (``tools/repro_lint/numerics``).

Each numerics rule (RPR013-017, RPR019) is exercised against its good/bad fixture
pair, against targeted inline programs (annotation placement, dtype
preservation proofs, NEP 50 weak scalars), and against the real ``src/``
tree: the merged source must carry zero unwaived numerics findings and a
``dtype_surface`` with zero unproven entries -- the float32-readiness
contract of ROADMAP item 2.
"""

import textwrap
from pathlib import Path

import pytest

from tools.repro_lint import run_paths
from tools.repro_lint.numerics import DTYPE_PINNED_RE
from tools.repro_lint.reporting import to_json_payload

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: rule id -> (bad fixture, good fixture, expected finding count in bad).
#: The rpr013/rpr015/rpr019 pairs live in the fixtures/repro(/core) mirror
#: because those rules only apply to library-scoped paths.
NUMERICS_FIXTURE_PAIRS = {
    "RPR013": ("repro/rpr013_bad.py", "repro/rpr013_good.py", 3),
    "RPR014": ("rpr014_bad.py", "rpr014_good.py", 2),
    "RPR015": ("repro/core/rpr015_bad.py", "repro/core/rpr015_good.py", 3),
    "RPR016": ("rpr016_bad.py", "rpr016_good.py", 3),
    "RPR017": ("rpr017_bad.py", "rpr017_good.py", 2),
    "RPR019": ("repro/core/rpr019_bad.py", "repro/core/rpr019_good.py", 3),
}

#: The seeded historical bug classes, each caught by its intended rule.
SEEDED_BUGS = {
    "arange-seam dtype pin": ("repro/rpr013_bad.py", "RPR013"),
    "silent float64 upcast": ("rpr014_bad.py", "RPR014"),
    "scalarized hot loop": ("repro/core/rpr015_bad.py", "RPR015"),
    "unseeded rng": ("rpr016_bad.py", "RPR016"),
    "empty-buffer read": ("rpr017_bad.py", "RPR017"),
    "batch-dependent mask sum": ("repro/core/rpr019_bad.py", "RPR019"),
}


def lint_flow(*names):
    return run_paths([str(FIXTURES / name) for name in names])


def lint_source(tmp_path, source, name="repro/core/prog.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_paths([str(path)])


class TestNumericsFixtures:
    @pytest.mark.parametrize("rule_id", sorted(NUMERICS_FIXTURE_PAIRS))
    def test_bad_fixture_fires(self, rule_id):
        bad, _good, expected_count = NUMERICS_FIXTURE_PAIRS[rule_id]
        violations = lint_flow(bad).violations
        fired = [v for v in violations if v.rule == rule_id]
        assert len(fired) == expected_count, (
            f"{bad} should trip {rule_id} x{expected_count}, got: "
            f"{[(v.rule, v.line) for v in violations]}")
        assert all(len(v.message) > 40 for v in fired)

    @pytest.mark.parametrize("rule_id", sorted(NUMERICS_FIXTURE_PAIRS))
    def test_good_fixture_stays_quiet(self, rule_id):
        _bad, good, _count = NUMERICS_FIXTURE_PAIRS[rule_id]
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


class TestDtypePinAnnotations:
    def test_annotation_regex_requires_reason_to_satisfy(self):
        with_reason = DTYPE_PINNED_RE.search(
            "# dtype-pinned: float64 -- wire format is fixed")
        assert with_reason is not None
        assert with_reason.group(1) == "float64"
        assert with_reason.group(2) == "wire format is fixed"
        without = DTYPE_PINNED_RE.search("# dtype-pinned: float64")
        assert without is not None and not without.group(2)

    def test_def_line_annotation_covers_the_body(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np


            def tone(n):  # dtype-pinned: complex128 -- synthesis contract
                return np.zeros(n, dtype=np.complex128)
            """)
        assert result.violations == []

    def test_preceding_line_annotation_is_honored(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np


            def tone(n):
                # dtype-pinned: complex128 -- synthesis contract
                return np.zeros(n, dtype=np.complex128)
            """)
        assert result.violations == []

    def test_annotation_without_reason_still_fires(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np


            def tone(n):
                return np.zeros(n, dtype=np.complex128)  # dtype-pinned: complex128
            """)
        fired = [v for v in result.violations if v.rule == "RPR013"]
        assert len(fired) == 1
        assert "missing the mandatory reason" in fired[0].message


class TestDtypePreservationProofs:
    def test_dynamic_dtype_is_not_a_pin(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np


            def pad(values, n):
                values = np.asarray(values)
                return np.zeros(n, dtype=values.dtype) + values
            """)
        assert [v for v in result.violations if v.rule == "RPR013"] == []

    def test_repro_dtypes_helpers_preserve_and_are_exempt(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            from repro.dtypes import as_complex_array


            def covariance(snapshots):
                snapshots = as_complex_array(snapshots)
                return snapshots @ snapshots.conj().T
            """)
        assert [v for v in result.violations if v.rule == "RPR013"] == []

    def test_integer_dtypes_are_not_precision_pins(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np


            def counts(values):
                del values
                return np.zeros(16, dtype=np.int64)
            """)
        assert [v for v in result.violations if v.rule == "RPR013"] == []

    def test_weak_python_scalar_does_not_trip_rpr014(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np


            def shift(n):
                narrow = np.zeros(n, dtype=np.float32)
                return narrow + 1.0
            """)
        assert [v for v in result.violations if v.rule == "RPR014"] == []


class TestMaskColumnReduction:
    def test_side_powers_body_before_the_contiguous_slices_fires(self,
                                                                 tmp_path):
        # The Section 2.3.4 side-power sums as they stood before the fix.
        result = lint_source(tmp_path, """\
            import numpy as np


            def side_powers_stack(power, angles):
                upper_mask = angles < 180.0
                upper_power = np.sum(power[:, upper_mask], axis=1)
                lower_power = np.sum(power[:, ~upper_mask], axis=1)
                return upper_power, lower_power
            """)
        assert [(v.rule, v.line) for v in result.violations] == \
            [("RPR019", 6), ("RPR019", 7)]

    @pytest.mark.parametrize("selection", [
        "power[:, angles >= 180.0]",
        "power[:, (angles > 10.0) & (angles < 90.0)]",
        "power[..., np.logical_not(np.isnan(angles))]",
        "power[:, :, mask]",
    ])
    @pytest.mark.parametrize("reduction", ["np.sum({}, axis=1)",
                                           "np.mean({}, axis=-1)",
                                           "{}.sum(axis=1)", "{}.var()"])
    def test_summing_reductions_over_mask_columns_fire(
            self, tmp_path, selection, reduction):
        result = lint_source(tmp_path, f"""\
            import numpy as np


            def reduce(power, angles):
                mask = np.zeros(angles.shape, dtype=bool)
                return {reduction.format(selection)}
            """)
        assert [v.rule for v in result.violations] == ["RPR019"]

    @pytest.mark.parametrize("expression", [
        "np.max(power[:, angles < 180.0], axis=1)",
        "np.sum(power[angles < 180.0], axis=1)",
        "np.sum(power[:, :half], axis=1)",
        "np.sum(power[:, index], axis=1)",
        "np.sum(np.ascontiguousarray(power[:, angles < 180.0]), axis=1)",
    ])
    def test_exact_or_contiguous_reductions_stay_quiet(self, tmp_path,
                                                        expression):
        result = lint_source(tmp_path, f"""\
            import numpy as np


            def reduce(power, angles, index, half):
                return {expression}
            """)
        assert result.violations == []

    def test_rule_applies_to_library_code_only(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np


            def reference(power, angles):
                return np.sum(power[:, angles < 180.0], axis=1)
            """, name="tests/prog.py")
        assert result.violations == []


class TestChangedOnlyRestriction:
    def test_restrict_filters_flow_findings_to_changed_paths(self):
        bad = str(FIXTURES / "repro" / "rpr013_bad.py")
        unrestricted = run_paths([bad])
        assert any(v.rule == "RPR013" for v in unrestricted.violations)
        restricted = run_paths([bad], restrict=set())
        assert restricted.violations == []
        assert restricted.files_checked == 0
        kept = run_paths([bad], restrict={bad})
        assert {v.rule for v in kept.violations} == {"RPR013"}

    def test_restricted_run_still_sees_the_whole_program(self, tmp_path):
        # The pin lives in helper.py; only caller.py is "changed".  The
        # flow pass must still read helper.py to prove reachability, but
        # report nothing (the finding's path was not changed).
        helper = tmp_path / "repro" / "helper.py"
        helper.parent.mkdir(parents=True)
        helper.write_text(textwrap.dedent("""\
            import numpy as np


            def _coerce(values):
                return np.asarray(values, dtype=np.float64)
            """), encoding="utf-8")
        caller = tmp_path / "repro" / "caller.py"
        caller.write_text(textwrap.dedent("""\
            from repro.helper import _coerce


            def powers(values):
                return _coerce(values) ** 2
            """), encoding="utf-8")
        both = run_paths([str(tmp_path)])
        assert any(v.rule == "RPR013" for v in both.violations)
        only_caller = run_paths([str(tmp_path)],
                                restrict={str(caller.as_posix())})
        assert only_caller.violations == []


class TestMergedSourceContract:
    """The repo's own code must satisfy the numerics contract."""

    @pytest.fixture(scope="class")
    def src_result(self):
        return run_paths([str(REPO_ROOT / "src")])

    def test_src_has_zero_unwaived_numerics_findings(self, src_result):
        numerics = [v for v in src_result.violations
                    if v.rule in ("RPR013", "RPR014", "RPR015",
                                  "RPR016", "RPR017", "RPR019")]
        assert numerics == [], [(v.path, v.line, v.rule) for v in numerics]
        for rule, count in src_result.waivers_by_rule.items():
            assert not rule.startswith("RPR01") or count == 0

    def test_dtype_surface_classifies_every_public_function(self, src_result):
        surface = src_result.dtype_surface
        assert surface["counts"]["unproven"] == 0
        assert sum(surface["counts"].values()) == len(surface["functions"])
        assert len(surface["functions"]) > 50
        for qualname, info in surface["functions"].items():
            assert qualname.startswith(("repro.api", "repro.core"))
            assert info["status"] in ("proven-polymorphic",
                                      "pinned-annotated", "unproven")
            if info["status"] == "pinned-annotated":
                assert info["pinned"], qualname

    def test_dtype_surface_is_json_stable(self, src_result):
        payload = to_json_payload(src_result)
        assert payload["dtype_surface"] == src_result.dtype_surface
