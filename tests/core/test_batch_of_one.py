"""Each public single-frame Section 2.3 name against its serial oracle copy.

In ``src/`` every single-frame primitive is a batch of one through its
stacked form, and the symmetry side-power test exists only as the stacked
``SymmetryResolver.side_powers_stack``; ``tests/core/_oracle.py`` keeps the
serial bodies.  These
tests check, bit for bit, that a batch of one equals the serial body on a
mixed capture set: an eight-antenna ULA (the linear rows of the nine-antenna
symmetry array) with 1 to 19 snapshots per frame and every seventh frame
all-zero, with and without diagonal loading, ``NG`` from 1 to 3 with and
without forward-backward averaging, and forced and estimated source counts.
"""

import numpy as np
import pytest

from repro.array import ArrayGeometry, DeployedArray, DiversitySynthesizer
from repro.channel import MultipathChannel
from repro.core import (
    SymmetryResolver,
    bartlett_spectrum,
    capon_spectrum,
    decompose,
    default_angle_grid,
    forward_backward_covariance,
    music_spectrum,
    sample_covariance,
    smoothed_covariance,
    spectrum_from_noise_subspace,
)
from repro.errors import EstimationError

from tests.core import _oracle as oracle

LINEAR = list(range(8))
LOADINGS = (0.0, 0.05)
SOURCE_COUNTS = (None, 1, 3)


def _captures(num_frames=38, seed=2013):
    """Nine-antenna frames with 1-19 snapshots, every seventh all-zero."""
    array = DeployedArray(ArrayGeometry.linear_with_symmetry_antenna(8))
    synthesizer = DiversitySynthesizer(array, LINEAR, [8])
    rng = np.random.default_rng(seed)
    frames = []
    for index in range(num_frames):
        channel = MultipathChannel.from_bearings(
            [float(rng.uniform(10.0, 350.0)), float(rng.uniform(10.0, 350.0))],
            [1.0, float(rng.uniform(0.2, 0.9)) * np.exp(1j * rng.uniform(0, 6))])
        samples = synthesizer.capture(
            channel, num_snapshots=1 + index % 19, snr_db=15.0, rng=rng,
            apply_phase_offsets=False).samples
        frames.append(np.zeros_like(samples) if index % 7 == 0 else samples)
    return array, frames


ARRAY, FRAMES = _captures()
ULA = ARRAY.geometry.subarray(LINEAR)
HALF = default_angle_grid(1.0, full_circle=False)


def _linear(frame):
    return frame[LINEAR, :]


def _check_sample_covariance():
    for frame in FRAMES:
        for loading in LOADINGS:
            assert np.array_equal(
                sample_covariance(_linear(frame), loading),
                oracle.sample_covariance(_linear(frame), loading))


def _check_forward_backward_covariance():
    for frame in FRAMES:
        for loading in LOADINGS:
            assert np.array_equal(
                forward_backward_covariance(_linear(frame), loading),
                oracle.forward_backward_covariance(_linear(frame), loading))


def _check_smoothed_covariance():
    for frame in FRAMES:
        for groups in (1, 2, 3):
            for forward_backward in (False, True):
                for loading in LOADINGS:
                    args = (_linear(frame), groups, loading, forward_backward)
                    assert np.array_equal(smoothed_covariance(*args),
                                          oracle.smoothed_covariance(*args))


def _covariances():
    """Plain and smoothed covariances of every frame, with their geometry."""
    for frame in FRAMES:
        yield oracle.sample_covariance(_linear(frame)), ULA
        yield (oracle.smoothed_covariance(_linear(frame), 2),
               ULA.subarray(list(range(7))))


def _check_decompose():
    for covariance, _ in _covariances():
        for count in SOURCE_COUNTS:
            batch = decompose(covariance, count)
            serial = oracle.decompose(covariance, count)
            assert batch.num_sources == serial.num_sources
            assert np.array_equal(batch.eigenvalues, serial.eigenvalues)
            assert np.array_equal(batch.eigenvectors, serial.eigenvectors)


def _check_spectrum_from_noise_subspace():
    for covariance, geometry in _covariances():
        noise = oracle.decompose(covariance).noise_subspace
        steering = geometry.steering_matrix(HALF)
        assert np.array_equal(spectrum_from_noise_subspace(noise, steering),
                              oracle.spectrum_from_noise_subspace(noise,
                                                                  steering))


def _check_music_spectrum():
    for covariance, geometry in _covariances():
        for count in SOURCE_COUNTS:
            assert np.array_equal(
                music_spectrum(covariance, geometry, HALF, count),
                oracle.music_spectrum(covariance, geometry, HALF, count))


def _check_bartlett_spectrum():
    for covariance, geometry in _covariances():
        assert np.array_equal(
            bartlett_spectrum(covariance, geometry, HALF),
            oracle.bartlett_spectrum(covariance, geometry, HALF))


def _check_capon_spectrum():
    for covariance, geometry in _covariances():
        if not np.any(covariance):
            with pytest.raises(EstimationError, match="zero trace"):
                capon_spectrum(covariance, geometry, HALF)
            continue
        assert np.array_equal(
            capon_spectrum(covariance, geometry, HALF),
            oracle.capon_spectrum(covariance, geometry, HALF))


def _weighting_spectra(frame):
    """No spectrum, then the frame's mirrored MUSIC spectrum."""
    half = oracle.music_spectrum(oracle.sample_covariance(_linear(frame)),
                                 ULA, HALF)
    return (None, oracle.mirror_half_spectrum(HALF, half))


def _check_side_powers_stack():
    resolver = SymmetryResolver(ARRAY.geometry, ARRAY.wavelength_m)
    for frame in FRAMES:
        for spectrum in _weighting_spectra(frame):
            upper, lower = resolver.side_powers_stack(
                frame[None],
                None if spectrum is None else spectrum.power[None],
                None if spectrum is None else spectrum.angles_deg)
            assert (float(upper[0]), float(lower[0])) == \
                oracle.side_powers(resolver, frame, spectrum)


CHECKS = {
    "sample_covariance": _check_sample_covariance,
    "forward_backward_covariance": _check_forward_backward_covariance,
    "smoothed_covariance": _check_smoothed_covariance,
    "decompose": _check_decompose,
    "spectrum_from_noise_subspace": _check_spectrum_from_noise_subspace,
    "music_spectrum": _check_music_spectrum,
    "bartlett_spectrum": _check_bartlett_spectrum,
    "capon_spectrum": _check_capon_spectrum,
    "SymmetryResolver.side_powers_stack": _check_side_powers_stack,
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_single_frame_name_matches_its_oracle_copy(name):
    CHECKS[name]()


def test_capture_mix_covers_zero_frames_and_snapshot_counts():
    assert sum(not np.any(frame) for frame in FRAMES) == 6
    assert {frame.shape[1] for frame in FRAMES} == set(range(1, 20))


@pytest.mark.parametrize("call", [
    lambda: sample_covariance(np.zeros(8)),
    lambda: sample_covariance(np.zeros((2, 8, 4))),
    lambda: smoothed_covariance(np.zeros((2, 8, 4)), 2),
    lambda: decompose(np.zeros((3, 4))),
    lambda: decompose(np.zeros((1, 4, 4))),
    lambda: music_spectrum(np.zeros((1, 8, 8)), ULA, HALF),
    lambda: spectrum_from_noise_subspace(np.zeros((1, 8, 7)),
                                         ULA.steering_matrix(HALF)),
], ids=["covariance-1d", "covariance-3d", "smoothed-3d", "decompose-ragged",
        "decompose-3d", "music-3d", "noise-subspace-3d"])
def test_single_frame_names_reject_stacks(call):
    with pytest.raises(EstimationError):
        call()
