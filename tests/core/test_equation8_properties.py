"""Equation 8 properties that follow from the paper, not from an oracle.

``L(x) = prod_i P_i(theta_i(x))`` (Section 2.5) is a product over APs and
depends on positions only through the bearings from each AP.  So, for
:meth:`~repro.core.batch.BatchLocalizer.estimate_batch`:

* permuting a client's AP spectra does not change its fix (the product
  commutes);
* adding an AP whose (normalized) spectrum is flat multiplies every cell
  by one, so a grid-only fix does not move as long as the AP does not sit
  on the fix cell (its own cell has no bearing and is rated zero);
* shifting the bounds, the APs and the clients by a whole number of grid
  steps shifts every grid-only fix by the same amount (bearings are
  translation invariant, so the clients' spectra stay as they are, and
  the grid moves with the bounds).

Reordering a product or shifting coordinates moves values by a few ulps,
so positions are compared to 1e-9 m and likelihoods to 1e-12 relative,
and a draw whose best two cells are within 1e-12 of each other (where an
ulp can legitimately pick the other cell) is skipped.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import (AoASpectrum, BatchLocalizer, LocalizerConfig,
                        default_angle_grid)
from repro.geometry import Point2D, bearing_deg

POSITION_TOLERANCE_M = 1e-9
LIKELIHOOD_RTOL = 1e-12
#: Exactly representable steps, so shifted bounds and grids stay exact.
RESOLUTIONS_M = (0.25, 0.5)


@st.composite
def deployments(draw):
    """Bounds, a config and clients whose spectra point at their targets."""
    resolution_m = draw(st.sampled_from(RESOLUTIONS_M))
    width = resolution_m * draw(st.integers(8, 24))
    height = resolution_m * draw(st.integers(8, 16))
    bounds = (0.0, 0.0, width, height)
    config = LocalizerConfig(
        grid_resolution_m=resolution_m,
        refine_with_hill_climbing=False,
        spectrum_floor=draw(st.sampled_from([0.0, 0.02])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = default_angle_grid(draw(st.sampled_from([1.0, 2.0])))
    sites = [(Point2D(float(rng.uniform(-1.0, width + 1.0)),
                      float(rng.uniform(-1.0, height + 1.0))),
              float(rng.uniform(0.0, 360.0)))
             for _ in range(draw(st.integers(2, 4)))]
    batch = {}
    for index in range(draw(st.integers(1, 3))):
        target = Point2D(float(rng.uniform(0.0, width)),
                         float(rng.uniform(0.0, height)))
        spectra = []
        for position, orientation in sites:
            local = (angles - (bearing_deg(position, target) - orientation)
                     + 180.0) % 360.0 - 180.0
            power = np.exp(-0.5 * (local / rng.uniform(4.0, 15.0)) ** 2) \
                + 0.02 * rng.random(angles.shape[0])
            spectra.append(AoASpectrum(angles, power, ap_position=position,
                                       ap_orientation_deg=orientation))
        batch[f"c{index}"] = spectra
    return bounds, config, batch


def _assume_clear_best_cell(localizer, batch):
    """Skip the draw if any client's best two cells (nearly) tie."""
    for heatmap in localizer.heatmaps(batch).values():
        best, second = np.sort(heatmap.values.ravel())[-2:][::-1]
        assume(best - second > LIKELIHOOD_RTOL * best)


def _assert_same_fix(fix, expected, dx=0.0, dy=0.0):
    assert abs(fix.position.x - (expected.position.x + dx)) \
        <= POSITION_TOLERANCE_M
    assert abs(fix.position.y - (expected.position.y + dy)) \
        <= POSITION_TOLERANCE_M
    assert fix.likelihood == pytest.approx(expected.likelihood,
                                           rel=LIKELIHOOD_RTOL, abs=0.0)


@pytest.mark.parametrize("refine", [False, True], ids=["grid", "refined"])
@settings(max_examples=100, deadline=None)
@given(case=deployments(), data=st.data())
def test_permuting_a_clients_spectra_keeps_its_fix(refine, case, data):
    bounds, config, batch = case
    config = replace(config, refine_with_hill_climbing=refine)
    localizer = BatchLocalizer(bounds, config)
    _assume_clear_best_cell(localizer, batch)
    permuted = {key: [spectra[i] for i in
                      data.draw(st.permutations(range(len(spectra))))]
                for key, spectra in batch.items()}
    fixes = localizer.estimate_batch(batch)
    for key, fix in localizer.estimate_batch(permuted).items():
        _assert_same_fix(fix, fixes[key])


@settings(max_examples=100, deadline=None)
@given(case=deployments(), data=st.data())
def test_a_flat_ap_away_from_the_fix_keeps_a_grid_fix(case, data):
    bounds, config, batch = case
    localizer = BatchLocalizer(bounds, config)
    _assume_clear_best_cell(localizer, batch)
    fixes = localizer.estimate_batch(batch)
    xmin, ymin, xmax, ymax = bounds
    flat_ap = Point2D(
        data.draw(st.floats(xmin - 1.0, xmax + 1.0), label="flat_ap_x"),
        data.draw(st.floats(ymin - 1.0, ymax + 1.0), label="flat_ap_y"))
    assume(all(fix.position.distance_to(flat_ap) > 1e-6
               for fix in fixes.values()))
    angles = batch["c0"][0].angles_deg
    flat = AoASpectrum(angles, np.full(angles.shape[0],
                                       data.draw(st.floats(0.1, 10.0))),
                       ap_position=flat_ap,
                       ap_orientation_deg=data.draw(st.floats(0.0, 360.0)))
    slots = {key: data.draw(st.integers(0, len(spectra)))
             for key, spectra in batch.items()}
    extended = {key: spectra[:slots[key]] + [flat] + spectra[slots[key]:]
                for key, spectra in batch.items()}
    for key, fix in localizer.estimate_batch(extended).items():
        _assert_same_fix(fix, fixes[key])


@settings(max_examples=100, deadline=None)
@given(case=deployments(), steps=st.tuples(st.integers(-40, 40),
                                           st.integers(-40, 40)))
def test_shifting_the_deployment_by_grid_steps_shifts_grid_fixes(case, steps):
    bounds, config, batch = case
    localizer = BatchLocalizer(bounds, config)
    _assume_clear_best_cell(localizer, batch)
    dx, dy = (step * config.grid_resolution_m for step in steps)
    xmin, ymin, xmax, ymax = bounds
    shifted = {key: [replace(spectrum, ap_position=Point2D(
                        spectrum.ap_position.x + dx,
                        spectrum.ap_position.y + dy))
                     for spectrum in spectra]
               for key, spectra in batch.items()}
    moved = BatchLocalizer((xmin + dx, ymin + dy, xmax + dx, ymax + dy),
                           config).estimate_batch(shifted)
    fixes = localizer.estimate_batch(batch)
    for key, fix in moved.items():
        _assert_same_fix(fix, fixes[key], dx, dy)
