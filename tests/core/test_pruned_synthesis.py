"""Bound-and-prune Section 2.5 synthesis against the full-fold oracle.

:class:`~repro.core.batch.BatchLocalizer` folds Equation 8 only on the grid
blocks whose upper bound can still hold a seed.  The property below checks
that its seeds, its grid-only fixes and its full
:meth:`~repro.core.batch.BatchLocalizer.heatmaps` are bit-identical to an
independent reference: the serial full grid of
:func:`tests.core._oracle.synthesize_likelihood`, ranked by one full sort
(:func:`tests.core._oracle.reference_seeds`).
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.core import (AoASpectrum, BatchLocalizer, LocalizerConfig,
                        default_angle_grid)
from repro.geometry import Point2D

from tests.core._oracle import reference_seeds, synthesize_likelihood

RESOLUTION_M = 0.25
#: A 33 x 21 cell grid (5 x 3 blocks) and a one-cell-wide strip.
WIDE = (0.0, 0.0, 8.0, 5.0)
NARROW = (2.0, 0.0, 2.1, 5.0)
#: AP placements; the last one sits exactly on a grid cell of both bounds.
SITES = [
    (Point2D(-0.7, -0.3), 20.0),
    (Point2D(8.4, 0.9), 110.0),
    (Point2D(2.6, 5.5), 250.0),
    (Point2D(2.0, 1.5), 0.0),
]
KINDS = ("lobe", "random", "flat", "integer", "floored")


def _power(kind: str, angles: np.ndarray, rng: np.random.Generator
           ) -> np.ndarray:
    """One spectrum shape: smooth, noisy, flat, integer-tied or floored."""
    if kind == "random":
        return rng.random(angles.shape[0])
    if kind == "flat":
        return np.full(angles.shape[0],
                       float(rng.choice([0.3, 0.7, 0.9, 1.0, 1.3])))
    if kind == "integer":
        power = rng.integers(0, 4, angles.shape[0]).astype(float)
        power[rng.integers(angles.shape[0])] = 3.0
        return power
    distance = np.abs((angles - rng.uniform(0.0, 360.0) + 180.0) % 360.0
                      - 180.0)
    lobe = np.exp(-0.5 * (distance / rng.uniform(3.0, 30.0)) ** 2)
    if kind == "floored":
        return np.maximum(lobe, 0.25)
    return lobe + 0.02 * rng.random(angles.shape[0])


@st.composite
def batches(draw):
    bounds = draw(st.sampled_from([WIDE, NARROW]))
    config = LocalizerConfig(
        grid_resolution_m=RESOLUTION_M,
        num_seeds=draw(st.integers(1, 4)),
        spectrum_floor=draw(st.sampled_from([0.0, 0.02, 0.05])))
    angles = default_angle_grid(draw(st.sampled_from([2.0, 5.0, 10.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = {}
    for index in range(draw(st.integers(1, 4))):
        # Ragged: each client hears its own subset of APs, in its own order.
        order = draw(st.permutations(range(len(SITES))))
        heard = order[:draw(st.integers(1, len(SITES)))]
        # Some clients hear one shape everywhere: an all-flat client has a
        # grid of exact ties and interpolation rounding alone.
        shared = draw(st.sampled_from(KINDS + (None,)))
        batch[f"c{index}"] = [
            AoASpectrum(angles,
                        _power(shared or draw(st.sampled_from(KINDS)),
                               angles, rng),
                        ap_position=SITES[site][0],
                        ap_orientation_deg=SITES[site][1])
            for site in heard]
    return bounds, config, batch


def _pairs(seeds):
    return [(position.x, position.y, value) for position, value in seeds]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_seeds_grid_fixes_and_heatmaps_match_full_fold_oracle(case):
    bounds, config, batch = case
    localizer = BatchLocalizer(bounds, config)
    seeds = localizer.seeds(batch, config.num_seeds)
    heatmaps = localizer.heatmaps(batch)
    grid = BatchLocalizer(bounds, replace(
        config, refine_with_hill_climbing=False)).estimate_batch(batch)
    assert list(heatmaps) == list(batch)
    for key, spectra in batch.items():
        heatmap = synthesize_likelihood(
            spectra, bounds, RESOLUTION_M, floor=config.spectrum_floor)
        np.testing.assert_array_equal(heatmaps[key].x_coords,
                                      heatmap.x_coords)
        np.testing.assert_array_equal(heatmaps[key].y_coords,
                                      heatmap.y_coords)
        np.testing.assert_array_equal(heatmaps[key].values, heatmap.values)
        assert _pairs(seeds[key]) == _pairs(
            reference_seeds(heatmap, config.num_seeds))
        peak = heatmap.peak_position()
        assert (grid[key].position.x, grid[key].position.y) == (peak.x, peak.y)
        assert grid[key].likelihood == float(np.max(heatmap.values))


def test_interpolation_rounding_stays_inside_the_bound():
    """A flat plateau's interpolation can round above its value.

    ``(1 - f) * c + f * c`` exceeds ``c`` by an ulp on some cells, so the
    block bound must be padded; unpadded, the prune skips blocks holding
    such cells and picks other seeds than the full fold.  The spectrum's
    maximum points away from the grid, so every cell reads the plateau
    ``1.3 / 2.0`` of the normalized spectrum.
    """
    angles = default_angle_grid(10.0)
    power = np.full(angles.shape[0], 1.3)
    power[angles == 200.0] = 2.0
    spectra = [AoASpectrum(angles, power, ap_position=Point2D(-0.7, -0.3),
                           ap_orientation_deg=20.0)]
    config = LocalizerConfig(grid_resolution_m=RESOLUTION_M,
                             spectrum_floor=0.0)
    heatmap = synthesize_likelihood(spectra, WIDE, RESOLUTION_M)
    assert np.max(heatmap.values) > 0.65
    seeds = BatchLocalizer(WIDE, config).seeds({"c": spectra}, 3)["c"]
    assert _pairs(seeds) == _pairs(reference_seeds(heatmap, 3))


def test_fixes_leave_scipy_unimported():
    """Synthesis is NumPy only: no fix path imports SciPy."""
    script = """
import sys
import numpy as np
from repro.core import AoASpectrum, BatchLocalizer, LocalizerConfig
from repro.core import default_angle_grid
from repro.geometry import Point2D

angles = default_angle_grid(1.0)
spectra = [AoASpectrum(angles, 1.0 + np.cos(np.radians(angles - offset)),
                       ap_position=position)
           for position, offset in ((Point2D(0.0, 0.0), 40.0),
                                    (Point2D(6.0, 0.0), 130.0))]
for refine in (True, False):
    BatchLocalizer((0.0, 0.0, 6.0, 4.0), LocalizerConfig(
        grid_resolution_m=0.25, refine_with_hill_climbing=refine,
    )).estimate_batch({"client": spectra})["client"]
print("scipy" in sys.modules)
"""
    source_root = str(Path(repro.__file__).resolve().parents[1])
    environment = dict(os.environ, PYTHONPATH=source_root)
    result = subprocess.run([sys.executable, "-c", script], env=environment,
                            capture_output=True, text=True, check=True,
                            timeout=120)
    assert result.stdout.strip() == "False"
