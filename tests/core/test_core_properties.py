"""Property-based tests on the core data structures and invariants.

These complement the scenario-driven tests with hypothesis-driven checks of
the algebraic properties the pipeline relies on: steering-vector structure,
spectrum mirroring, window bounds, covariance hermiticity under arbitrary
snapshots and suppression never amplifying a spectrum.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.array import ArrayGeometry
from repro.core import (
    AoASpectrum,
    BatchLocalizer,
    LocalizerConfig,
    MultipathSuppressor,
    default_angle_grid,
    geometry_window,
    sample_covariance,
    spectrum_from_noise_subspace,
)
from repro.geometry import Point2D

from tests.core import _oracle as oracle

angles = st.floats(min_value=0.0, max_value=360.0, allow_nan=False,
                   allow_infinity=False)
num_antennas = st.integers(min_value=2, max_value=12)


def _random_snapshots(draw_shape, seed):
    rng = np.random.default_rng(seed)
    real = rng.normal(size=draw_shape)
    imaginary = rng.normal(size=draw_shape)
    return real + 1j * imaginary


class TestSteeringProperties:
    @settings(max_examples=30, deadline=None)
    @given(num_antennas, angles)
    def test_steering_vectors_have_unit_modulus_entries(self, antennas, azimuth):
        geometry = ArrayGeometry.uniform_linear(antennas)
        vector = geometry.steering_vector(azimuth)
        assert vector.shape == (antennas,)
        assert np.allclose(np.abs(vector), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(num_antennas, angles, angles)
    def test_steering_matrix_columns_match_vectors(self, antennas, az1, az2):
        geometry = ArrayGeometry.uniform_linear(antennas)
        matrix = geometry.steering_matrix(np.array([az1, az2]))
        assert matrix.shape == (antennas, 2)
        assert np.allclose(matrix[:, 0], geometry.steering_vector(az1))
        assert np.allclose(matrix[:, 1], geometry.steering_vector(az2))


class TestCovarianceProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_sample_covariance_is_hermitian_psd(self, antennas, snapshots, seed):
        samples = _random_snapshots((antennas, snapshots), seed)
        covariance = sample_covariance(samples)
        assert covariance.shape == (antennas, antennas)
        assert np.allclose(covariance, covariance.conj().T)
        assert np.all(np.linalg.eigvalsh(covariance) > -1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=8),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_music_spectrum_is_positive(self, antennas, seed):
        samples = _random_snapshots((antennas, 16), seed)
        covariance = sample_covariance(samples)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        noise_subspace = eigenvectors[:, :antennas - 1]
        geometry = ArrayGeometry.uniform_linear(antennas)
        steering = geometry.steering_matrix(default_angle_grid(2.0, False))
        power = spectrum_from_noise_subspace(noise_subspace, steering)
        assert np.all(power > 0.0)
        assert np.all(np.isfinite(power))


class TestSpectrumProperties:
    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, 181, elements=st.floats(min_value=0.0,
                                                          max_value=1e6)))
    def test_mirroring_preserves_half_spectrum_values(self, half_power):
        half_angles = default_angle_grid(1.0, full_circle=False)
        if np.all(half_power == 0):
            half_power = half_power + 1e-6
        spectrum = oracle.mirror_half_spectrum(half_angles, half_power)
        assert np.allclose(spectrum.power[:181], half_power)
        # Mirror property: P(360 - theta) == P(theta) for interior angles.
        for theta in (10.0, 45.0, 90.0, 135.0, 170.0):
            assert spectrum.power_at_local(360.0 - theta)[0] == pytest.approx(
                spectrum.power_at_local(theta)[0], rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(angles)
    def test_geometry_window_bounds(self, angle):
        window = geometry_window(np.array([angle]))
        assert 0.0 <= window[0] <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(hnp.arrays(np.float64, 360,
                      elements=st.floats(min_value=0.0, max_value=100.0)),
           hnp.arrays(np.float64, 360,
                      elements=st.floats(min_value=0.0, max_value=100.0)))
    def test_suppression_never_amplifies(self, primary_power, companion_power):
        angles_grid = default_angle_grid(1.0)
        if np.max(primary_power) <= 0:
            primary_power = primary_power + 1e-3
        if np.max(companion_power) <= 0:
            companion_power = companion_power + 1e-3
        primary = AoASpectrum(angles_grid, primary_power, timestamp_s=0.0)
        companion = AoASpectrum(angles_grid, companion_power, timestamp_s=0.03)
        suppressed = MultipathSuppressor().suppress([primary, companion])
        assert np.all(suppressed.power <= primary.power + 1e-12)


class TestLikelihoodProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=1.0, max_value=9.0),
           st.floats(min_value=1.0, max_value=9.0))
    def test_likelihood_map_is_nonnegative_and_bounded(self, x, y):
        target = Point2D(x, y)
        angles_grid = default_angle_grid(2.0)
        spectra = []
        for ap_position in (Point2D(0.0, 0.0), Point2D(10.0, 0.0)):
            bearing = np.degrees(np.arctan2(target.y - ap_position.y,
                                            target.x - ap_position.x)) % 360
            distance = np.minimum(np.abs(angles_grid - bearing),
                                  360 - np.abs(angles_grid - bearing))
            power = np.exp(-0.5 * (distance / 5.0) ** 2) + 1e-5
            spectra.append(AoASpectrum(angles_grid, power, ap_position=ap_position))
        heatmap = BatchLocalizer((0, 0, 10, 10), LocalizerConfig(
            grid_resolution_m=0.5, spectrum_floor=0.0)).heatmaps(
                {"c": spectra})["c"]
        assert np.all(heatmap.values >= 0.0)
        assert np.all(heatmap.values <= 1.0 + 1e-9)
        assert heatmap.peak_position().distance_to(target) < 1.5
