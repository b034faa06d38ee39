"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation re-runs a reduced localization campaign with one design knob
changed, quantifying how much that component of ArrayTrack's pipeline is
worth on the simulated testbed.
"""

from repro.api import ArrayTrackConfig
from repro.core import SpectrumConfig
from repro.eval import format_error_statistics, run_localization_sweep
from repro.testbed import ScenarioConfig

from conftest import run_once

#: Reduced campaign size so the whole ablation suite stays fast.
NUM_CLIENTS = 20
GRID_M = 0.3


def _sweep(scenario=None, ap_counts=(6,), suppression=True, subsets=1):
    return run_localization_sweep(scenario=scenario, ap_counts=ap_counts,
                                  num_clients=NUM_CLIENTS,
                                  max_subsets_per_count=subsets,
                                  grid_resolution_m=GRID_M,
                                  enable_multipath_suppression=suppression)


def test_ablation_smoothing_groups(benchmark):
    """A-SMOOTH: the NG = 2 choice of Section 2.3.2 versus no smoothing."""
    def run():
        results = {}
        for groups in (1, 2, 3):
            scenario = ScenarioConfig(
                frames_per_client=3, seed=2013,
                spectrum=SpectrumConfig(smoothing_groups=groups))
            results[f"NG={groups}"] = _sweep(scenario).statistics[6]
        return results

    results = run_once(benchmark, run)
    print()
    print(format_error_statistics(results, label="smoothing",
                                  title="Ablation: spatial smoothing groups"))
    # Smoothing (NG >= 2) should not be worse than no smoothing by much; the
    # paper picks NG = 2 as the accuracy compromise.
    assert results["NG=2"].median_cm <= results["NG=1"].median_cm * 1.5 + 10.0


def test_ablation_geometry_weighting(benchmark):
    """A-WEIGHT: the array-geometry window W(theta) of Section 2.3.3."""
    def run():
        with_weighting = _sweep(ScenarioConfig(
            frames_per_client=3, seed=2013,
            spectrum=SpectrumConfig(apply_weighting=True)))
        without_weighting = _sweep(ScenarioConfig(
            frames_per_client=3, seed=2013,
            spectrum=SpectrumConfig(apply_weighting=False)))
        return {"with W(theta)": with_weighting.statistics[6],
                "without W(theta)": without_weighting.statistics[6]}

    results = run_once(benchmark, run)
    print()
    print(format_error_statistics(results, label="configuration",
                                  title="Ablation: array geometry weighting"))
    assert (results["with W(theta)"].mean_cm
            <= results["without W(theta)"].mean_cm * 1.25 + 10.0)


def test_ablation_multipath_suppression(benchmark):
    """A-SUPPRESS: multipath suppression across frames (Section 2.4)."""
    def run():
        scenario = ScenarioConfig(frames_per_client=3, seed=2013)
        with_suppression = _sweep(scenario, ap_counts=(3, 6), suppression=True,
                                  subsets=2)
        without_suppression = _sweep(
            ScenarioConfig(frames_per_client=3, seed=2013),
            ap_counts=(3, 6), suppression=False, subsets=2)
        return {
            "suppression, 3 APs": with_suppression.statistics[3],
            "no suppression, 3 APs": without_suppression.statistics[3],
            "suppression, 6 APs": with_suppression.statistics[6],
            "no suppression, 6 APs": without_suppression.statistics[6],
        }

    results = run_once(benchmark, run)
    print()
    print(format_error_statistics(results, label="configuration",
                                  title="Ablation: multipath suppression"))
    assert (results["suppression, 6 APs"].mean_cm
            <= results["no suppression, 6 APs"].mean_cm * 1.25 + 10.0)


def test_ablation_symmetry_removal(benchmark):
    """A-SYMMETRY: the ninth-antenna symmetry removal matters most at 3 APs."""
    def run():
        with_ninth = _sweep(ScenarioConfig(frames_per_client=3, seed=2013,
                                           use_symmetry_antenna=True),
                            ap_counts=(3,), subsets=3)
        without_ninth = _sweep(ScenarioConfig(frames_per_client=3, seed=2013,
                                              use_symmetry_antenna=False),
                               ap_counts=(3,), subsets=3)
        return {"with symmetry removal": with_ninth.statistics[3],
                "without symmetry removal": without_ninth.statistics[3]}

    results = run_once(benchmark, run)
    print()
    print(format_error_statistics(results, label="configuration",
                                  title="Ablation: array symmetry removal (3 APs)"))
    # Removing the mirror ghosts should help (or at least not hurt) the mean
    # error at 3 APs, where ghost intersections create false positives.
    assert (results["with symmetry removal"].mean_cm
            <= results["without symmetry removal"].mean_cm * 1.1 + 10.0)


def test_ablation_estimator_choice(benchmark):
    """A-ESTIMATOR: MUSIC versus the Bartlett and Capon beamformers.

    Estimators are selected through the config tree's
    ``ap.spectrum.method`` leaf, which yields exactly the
    ``SpectrumConfig(method=...)`` this ablation always hardcoded, so the
    config path reproduces the historical results verbatim.
    """
    def run():
        results = {}
        for name in ("music", "bartlett", "capon"):
            spectrum = ArrayTrackConfig().updated(
                {"ap.spectrum.method": name}).ap.spectrum
            assert spectrum == SpectrumConfig(method=name)
            scenario = ScenarioConfig(
                frames_per_client=3, seed=2013, spectrum=spectrum)
            results[name] = _sweep(scenario).statistics[6]
        return results

    results = run_once(benchmark, run)
    print()
    print(format_error_statistics(results, label="estimator",
                                  title="Ablation: spectrum estimator"))
    # MUSIC (the paper's choice) should be at least as accurate as the
    # conventional beamformer.
    assert results["music"].median_cm <= results["bartlett"].median_cm * 1.2 + 10.0
