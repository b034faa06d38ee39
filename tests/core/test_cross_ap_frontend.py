"""The cross-AP Section 2.3 frontend is batch-invariant, bit for bit.

:func:`repro.ap.access_point.compute_spectra_across` stacks the raw frames
of every AP sharing a frontend key into one pass, and the streaming
service runs it over whatever is pending at ``tick()``.  A frame's
spectrum must therefore not depend on which other frames share its stack:
these tests compare every frame against its batch of one, and the stacked
side powers of Section 2.3.4 against each frame alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap import APConfig, ArrayTrackAP
from repro.ap.access_point import compute_spectra_across
from repro.array.receiver import SnapshotMatrix
from repro.ap.buffer import BufferEntry
from repro.core import SpectrumConfig
from repro.core.spectrum import _stacked_spectra, default_angle_grid
from repro.core.symmetry import SymmetryResolver
from repro.errors import EstimationError
from repro.geometry import Point2D

from tests.core._oracle import reference_ap_spectrum

METHODS = ("music", "bartlett", "capon")
#: Same-key APs: one configuration, different placements and radio offsets.
PLACEMENTS = ((Point2D(0.0, 0.0), 30.0), (Point2D(8.0, 3.0), 135.0),
              (Point2D(2.5, 9.0), 270.0))


def _fleet(method, use_symmetry=True):
    config = SpectrumConfig(method=method, angle_resolution_deg=2.0)
    return [ArrayTrackAP(f"ap{index}", position, orientation,
                         config=APConfig(spectrum=config,
                                         use_symmetry_antenna=use_symmetry),
                         rng=np.random.default_rng(index))
            for index, (position, orientation) in enumerate(PLACEMENTS)]


def _entry(ap, seed, num_snapshots=10):
    """A raw frame of random complex samples (any finite capture will do)."""
    rng = np.random.default_rng(seed)
    shape = (ap.array.num_elements, num_snapshots)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    snapshots = SnapshotMatrix(samples, client_id=f"c{seed}", ap_id=ap.ap_id,
                               timestamp_s=0.01 * seed)
    return BufferEntry(snapshots, f"c{seed}", 0.01 * seed, seed)


def _assert_identical(expected, actual):
    assert actual.power.tobytes() == expected.power.tobytes()
    assert actual.angles_deg.tobytes() == expected.angles_deg.tobytes()
    assert (actual.ap_position, actual.ap_orientation_deg, actual.client_id,
            actual.ap_id, actual.timestamp_s) \
        == (expected.ap_position, expected.ap_orientation_deg,
            expected.client_id, expected.ap_id, expected.timestamp_s)


@settings(max_examples=25, deadline=None)
@given(method=st.sampled_from(METHODS), use_symmetry=st.booleans(),
       picks=st.lists(st.tuples(st.integers(0, len(PLACEMENTS) - 1),
                                st.integers(0, 10_000)),
                      min_size=1, max_size=40))
def test_every_frame_equals_its_batch_of_one(method, use_symmetry, picks):
    """Any stack size, order and mix of same-key APs: bit for bit.

    Stacks of up to 40 frames cross the Bartlett chunk boundary (32).
    """
    fleet = _fleet(method, use_symmetry)
    frames = [(fleet[ap_index], _entry(fleet[ap_index], seed))
              for ap_index, seed in picks]
    stacked = compute_spectra_across(frames)
    assert len(stacked) == len(frames)
    for frame, spectrum in zip(frames, stacked, strict=True):
        _assert_identical(compute_spectra_across([frame])[0], spectrum)


@pytest.mark.parametrize("use_symmetry", [True, False])
def test_cross_ap_pass_matches_the_serial_reference(use_symmetry):
    fleet = _fleet("music", use_symmetry)
    frames = [(ap, _entry(ap, seed)) for seed in range(4) for ap in fleet]
    for (ap, entry), spectrum in zip(frames, compute_spectra_across(frames),
                                     strict=True):
        _assert_identical(reference_ap_spectrum(ap, entry), spectrum)
        assert spectrum.ap_position == ap.position


def test_different_frontend_keys_share_one_call():
    """APs of different configs and snapshot shapes are grouped apart and
    returned in input order."""
    music, capon = _fleet("music")[0], _fleet("capon")[1]
    linear = _fleet("music", use_symmetry=False)[2]
    frames = [(music, _entry(music, 1)), (capon, _entry(capon, 2)),
              (linear, _entry(linear, 3)), (music, _entry(music, 4, 6)),
              (capon, _entry(capon, 5))]
    for (ap, entry), spectrum in zip(frames, compute_spectra_across(frames),
                                     strict=True):
        _assert_identical(reference_ap_spectrum(ap, entry), spectrum)
    assert compute_spectra_across([]) == []


def test_side_powers_do_not_depend_on_the_stack():
    """Section 2.3.4's per-side sums are the same stacked or alone."""
    ap = _fleet("music")[0]
    resolver = SymmetryResolver(ap.array.geometry, ap.array.wavelength_m)
    stack = np.stack([_entry(ap, seed).snapshots.samples
                      for seed in range(40)])
    weights = np.random.default_rng(3).random((40, 180))
    angles = default_angle_grid(2.0)
    upper, lower = resolver.side_powers_stack(stack, weights, angles)
    for index in range(40):
        alone = resolver.side_powers_stack(stack[index:index + 1],
                                           weights[index:index + 1], angles)
        assert (upper[index], lower[index]) == (alone[0][0], alone[1][0])


class TestStackedSpectra:
    """The frontend validates each power stack once, as a whole."""

    def _metadata(self, count):
        return [(None, 0.0, "c", "ap", 0.0)] * count

    def test_rows_are_views_with_their_metadata(self):
        angles = default_angle_grid(90.0)
        power = np.arange(8.0).reshape(2, 4)
        first, second = _stacked_spectra(
            angles, power, [(Point2D(1.0, 2.0), 45.0, "a", "ap1", 1.5),
                            (None, 0.0, "b", "ap2", 2.5)])
        assert np.shares_memory(first.power, power)
        assert second.power.tolist() == [4.0, 5.0, 6.0, 7.0]
        assert (first.ap_position, first.ap_orientation_deg, first.client_id,
                first.ap_id, first.timestamp_s) \
            == (Point2D(1.0, 2.0), 45.0, "a", "ap1", 1.5)
        assert second.client_id == "b"

    @pytest.mark.parametrize("angles, power, match", [
        (default_angle_grid(90.0), -np.ones((2, 4)), "non-negative"),
        (np.array([0.0, 120.0, 240.0]), np.ones((2, 3)), "four grid points"),
        (default_angle_grid(90.0), np.ones((2, 5)), "equal length"),
        (default_angle_grid(90.0), np.ones(4), r"shape \(F, K\)"),
    ], ids=["negative", "short-grid", "grid-mismatch", "not-a-stack"])
    def test_the_spectrum_invariants_hold(self, angles, power, match):
        with pytest.raises(EstimationError, match=match):
            _stacked_spectra(angles, power, self._metadata(len(power)))
