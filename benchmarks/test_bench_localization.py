"""Benchmarks regenerating the localization accuracy results (Figures 13-16).

These are the paper's headline results: localization error CDFs across the
41-client testbed for different AP counts, with and without ArrayTrack's
optimizations, and for different antenna counts.
"""


from repro.eval import (
    fig13_static_localization,
    fig14_heatmaps,
    fig15_arraytrack_localization,
    fig16_antenna_count,
    format_cdf_series,
    format_error_statistics,
    format_key_values,
)

from conftest import run_once

#: Full 41-client campaigns; AP subsets per count are capped to keep each
#: benchmark to a few minutes (the paper evaluates every combination; raise
#: SUBSETS_PER_COUNT to None to do the same).
NUM_CLIENTS = 41
SUBSETS_PER_COUNT = 2
GRID_M = 0.25


def test_fig13_static_cdf(benchmark):
    """E-FIG13: raw (unoptimized) spectra synthesis, 3-6 APs."""
    sweep = run_once(benchmark, fig13_static_localization,
                     NUM_CLIENTS, SUBSETS_PER_COUNT, GRID_M)
    print()
    print(format_error_statistics(sweep.statistics, label="APs",
                                  title="Figure 13: unoptimized location error"))
    print(format_cdf_series(sweep.cdfs, title="Figure 13: CDF summary"))
    # Shape: more APs help; the paper reports median 75 cm (3 APs) down to
    # 26 cm (6 APs) and a large mean at 3 APs driven by mirror ghosts.
    assert sweep.statistics[6].median_cm < sweep.statistics[3].median_cm
    assert sweep.statistics[3].mean_cm > sweep.statistics[3].median_cm


def test_fig14_heatmaps(benchmark):
    """E-FIG14: the refined fix converges to the client as APs are added."""
    errors = run_once(benchmark, fig14_heatmaps)
    print()
    print(format_key_values({f"{k} AP(s)": f"{v:.0f} cm" for k, v in errors.items()},
                            title="Figure 14: fix error vs number of APs"))
    assert errors[6] <= errors[1]
    assert errors[6] < 150.0


def test_fig15_arraytrack_cdf(benchmark):
    """E-FIG15: full ArrayTrack vs unoptimized, 3-6 APs."""
    results = run_once(benchmark, fig15_arraytrack_localization,
                       NUM_CLIENTS, SUBSETS_PER_COUNT, GRID_M)
    arraytrack = results["arraytrack"]
    unoptimized = results["unoptimized"]
    print()
    print(format_error_statistics(arraytrack.statistics, label="APs",
                                  title="Figure 15: ArrayTrack location error"))
    print(format_error_statistics(unoptimized.statistics, label="APs",
                                  title="Figure 15: unoptimized location error"))
    # Shape assertions.  In the paper ArrayTrack's refinements cut the mean
    # error sharply (3 APs: 317 cm -> 107 cm), mostly by removing mirror-ghost
    # false positives.  In this simulated testbed the wall-mounted APs face
    # the room, so most ghosts already fall outside the floor and the raw
    # synthesis is comparatively strong; the refinements are therefore close
    # to neutral here rather than a large win (see EXPERIMENTS.md).  What must
    # hold: the full pipeline stays in the same accuracy class as the raw one
    # and keeps improving as APs are added.
    for count in (3, 4, 5, 6):
        assert (arraytrack.statistics[count].median_cm
                <= unoptimized.statistics[count].median_cm * 1.6 + 10.0)
    assert arraytrack.statistics[6].median_cm <= arraytrack.statistics[3].median_cm
    assert arraytrack.statistics[6].median_cm < 100.0


def test_fig16_antenna_count(benchmark):
    """E-FIG16: accuracy improves with 4 -> 6 -> 8 antennas."""
    results = run_once(benchmark, fig16_antenna_count, (4, 6, 8), NUM_CLIENTS, GRID_M)
    print()
    print(format_error_statistics(results, label="antennas",
                                  title="Figure 16: location error vs antennas"))
    assert results[8].median_cm <= results[4].median_cm
    assert results[6].median_cm <= results[4].median_cm * 1.2
    # Diminishing returns: the 4 -> 6 improvement exceeds the 6 -> 8 one.
    assert (results[4].median_cm - results[6].median_cm) >= (
        results[6].median_cm - results[8].median_cm) - 5.0


def test_headline_numbers(benchmark):
    """E-SEC42: the headline medians (paper: 23 cm @ 6 APs, 57 cm @ 3 APs)."""
    results = run_once(benchmark, fig15_arraytrack_localization,
                       NUM_CLIENTS, SUBSETS_PER_COUNT, GRID_M)
    arraytrack = results["arraytrack"].statistics
    print()
    print(format_key_values({
        "median error, 6 APs": f"{arraytrack[6].median_cm:.0f} cm (paper: 23 cm)",
        "mean error, 6 APs": f"{arraytrack[6].mean_cm:.0f} cm (paper: 31 cm)",
        "95th percentile, 6 APs": f"{arraytrack[6].p95_cm:.0f} cm (paper: 90 cm)",
        "median error, 3 APs": f"{arraytrack[3].median_cm:.0f} cm (paper: 57 cm)",
    }, title="Headline accuracy (Section 4.2)"))
    # Sub-metre median accuracy with six APs; 3-AP median within a few x of it.
    assert arraytrack[6].median_cm < 100.0
    assert arraytrack[3].median_cm < 250.0
