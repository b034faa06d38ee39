"""Tests for MUSIC / beamformer spectra, the spectrum container and peaks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.array import ArrayGeometry, ArrayReceiver, DeployedArray
from repro.channel import MultipathChannel
from repro.core import (
    AoASpectrum,
    SpectrumComputer,
    SpectrumConfig,
    bartlett_spectrum,
    bartlett_spectrum_many,
    capon_spectrum,
    capon_spectrum_many,
    default_angle_grid,
    find_peaks,
    match_peak,
    music_spectrum,
    music_spectrum_many,
    peak_regions,
    sample_covariance,
    smoothed_covariance,
)
from repro.errors import EstimationError
from repro.geometry import Point2D

from tests.core import _oracle as oracle


def _covariance_for(bearings, amplitudes, antennas=8, snr_db=30.0, num=200, seed=0,
                    smoothing=1):
    geometry = ArrayGeometry.uniform_linear(antennas)
    array = DeployedArray(geometry)
    channel = MultipathChannel.from_bearings(bearings, amplitudes)
    receiver = ArrayReceiver(array, apply_phase_offsets=False)
    snapshots = receiver.capture(channel, num_snapshots=num, snr_db=snr_db,
                                 rng=np.random.default_rng(seed)).samples
    if smoothing > 1:
        return smoothed_covariance(snapshots, smoothing), geometry.subarray(
            list(range(antennas - smoothing + 1)))
    return sample_covariance(snapshots), geometry


incidence = st.floats(min_value=15.0, max_value=165.0,
                      allow_nan=False, allow_infinity=False)


class TestEstimators:
    @settings(max_examples=15, deadline=None)
    @given(incidence)
    def test_music_peak_at_true_bearing_single_source(self, bearing):
        covariance, geometry = _covariance_for([bearing], [1.0])
        angles = default_angle_grid(1.0, full_circle=False)
        power = music_spectrum(covariance, geometry, angles, num_sources=1)
        peak_angle = angles[int(np.argmax(power))]
        assert abs(peak_angle - bearing) <= 2.0

    def test_music_resolves_coherent_sources_with_smoothing(self):
        covariance, geometry = _covariance_for(
            [60.0, 110.0], [1.0, 0.9 * np.exp(1.1j)], smoothing=2)
        angles = default_angle_grid(1.0, full_circle=False)
        power = music_spectrum(covariance, geometry, angles)
        top_angles = angles[np.argsort(power)[-8:]]
        assert any(abs(a - 60.0) <= 4.0 for a in top_angles)
        assert any(abs(a - 110.0) <= 4.0 for a in top_angles)

    def test_bartlett_and_capon_peak_at_true_bearing(self):
        covariance, geometry = _covariance_for([75.0], [1.0])
        angles = default_angle_grid(1.0, full_circle=False)
        for estimator in (bartlett_spectrum, capon_spectrum):
            power = estimator(covariance, geometry, angles)
            assert abs(angles[int(np.argmax(power))] - 75.0) <= 3.0

    def test_music_sharper_than_bartlett(self):
        covariance, geometry = _covariance_for([75.0], [1.0])
        angles = default_angle_grid(1.0, full_circle=False)
        music = music_spectrum(covariance, geometry, angles, num_sources=1)
        bartlett = bartlett_spectrum(covariance, geometry, angles)
        def lobe_width(power):
            half = np.max(power) / 2
            return int(np.sum(power > half))
        assert lobe_width(music) < lobe_width(bartlett)

    def test_dimension_mismatch_rejected(self):
        geometry = ArrayGeometry.uniform_linear(8)
        with pytest.raises(EstimationError):
            music_spectrum(np.eye(4), geometry, default_angle_grid(1.0, False))

    def test_capon_solve_matches_explicit_inverse(self):
        # The solve-based Capon quadratic form must reproduce the explicit
        # R^-1 evaluation (the pre-optimization reference) to numerical
        # precision, and stay exactly reciprocal-positive.
        covariance, geometry = _covariance_for([75.0, 130.0],
                                               [1.0, 0.5 * np.exp(0.3j)])
        angles = default_angle_grid(1.0, full_circle=False)
        power = capon_spectrum(covariance, geometry, angles)
        num_antennas = covariance.shape[0]
        loading = 1e-3 * float(np.real(np.trace(covariance))) / num_antennas
        regularized = covariance + loading * np.eye(num_antennas)
        inverse = np.linalg.inv(regularized)  # repro-lint: disable=RPR002 -- reference cross-check that the production solve() path matches explicit inversion
        steering = geometry.steering_matrix(angles)
        quadratic = np.real(np.einsum("mk,mn,nk->k", steering.conj(),
                                      inverse, steering))
        reference = 1.0 / np.maximum(quadratic, 1e-12)
        assert np.allclose(power, reference, rtol=1e-9, atol=1e-12)
        assert np.all(power > 0)


class TestStackedEstimators:
    """The *_many estimators must match the serial oracle bit for bit."""

    def _covariance_stack(self, num_frames=5, seed=2):
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(num_frames):
            bearings = [float(rng.uniform(15.0, 165.0)),
                        float(rng.uniform(15.0, 165.0))]
            covariance, geometry = _covariance_for(
                bearings, [1.0, 0.6 * np.exp(0.8j)],
                seed=int(rng.integers(1 << 30)), num=20, snr_db=12.0)
            frames.append(covariance)
        return np.stack(frames), geometry

    def test_music_many_matches_serial_bitwise(self):
        covariances, geometry = self._covariance_stack()
        angles = default_angle_grid(1.0, full_circle=False)
        batched = music_spectrum_many(covariances, geometry, angles)
        for frame in range(covariances.shape[0]):
            assert np.array_equal(batched[frame],
                                  oracle.music_spectrum(covariances[frame],
                                                        geometry, angles))

    def test_music_many_forced_counts(self):
        covariances, geometry = self._covariance_stack(num_frames=4)
        angles = default_angle_grid(1.0, full_circle=False)
        batched = music_spectrum_many(covariances, geometry, angles,
                                      num_sources=[1, 2, 7, 3])
        for frame, forced in enumerate([1, 2, 7, 3]):
            assert np.array_equal(
                batched[frame],
                oracle.music_spectrum(covariances[frame], geometry, angles,
                                      num_sources=forced))

    def test_bartlett_and_capon_many_match_serial_bitwise(self):
        covariances, geometry = self._covariance_stack()
        angles = default_angle_grid(1.0, full_circle=False)
        for serial, batched in (
                (oracle.bartlett_spectrum, bartlett_spectrum_many),
                (oracle.capon_spectrum, capon_spectrum_many)):
            stacked = batched(covariances, geometry, angles)
            for frame in range(covariances.shape[0]):
                assert np.array_equal(stacked[frame],
                                      serial(covariances[frame], geometry,
                                             angles))

    def test_capon_many_names_zero_trace_frames(self):
        covariances, geometry = self._covariance_stack(num_frames=4)
        covariances[[1, 3]] = 0.0
        angles = default_angle_grid(1.0, full_circle=False)
        with pytest.raises(EstimationError, match=r"frames \[1, 3\]"):
            capon_spectrum_many(covariances, geometry, angles)
        # MUSIC and Bartlett still map an all-zero frame to a spectrum.
        assert np.all(np.isfinite(
            music_spectrum_many(covariances, geometry, angles)))
        assert not np.any(
            bartlett_spectrum_many(covariances, geometry, angles)[[1, 3]])

    def test_stack_dimension_mismatch_rejected(self):
        geometry = ArrayGeometry.uniform_linear(8)
        angles = default_angle_grid(1.0, full_circle=False)
        with pytest.raises(EstimationError):
            music_spectrum_many(np.zeros((2, 4, 4)), geometry, angles)
        with pytest.raises(EstimationError):
            bartlett_spectrum_many(np.zeros((4, 4)), geometry, angles)


class TestAoASpectrum:
    def test_grid_validation(self):
        with pytest.raises(EstimationError):
            default_angle_grid(7.0)
        with pytest.raises(EstimationError):
            AoASpectrum(np.arange(4.0), np.array([1.0, -1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("resolution_deg", [0.1, 0.3, 0.75, 0.9, 1.0, 2.0])
    def test_half_circle_grid_seam_is_exact(self, resolution_deg):
        # Regression: the old ``np.arange(0, 180 + res/2, res)`` endpoint
        # construction let float accumulation drop or duplicate the 180
        # degree seam point for resolutions whose reciprocal is inexact
        # (0.3, 0.9, ...).  The grid is now built on its exact point count.
        grid = default_angle_grid(resolution_deg, full_circle=False)
        expected_points = int(round(180.0 / resolution_deg)) + 1
        assert grid.shape[0] == expected_points
        assert grid[0] == 0.0
        assert grid[-1] == 180.0  # bitwise exact, not approx
        assert np.all(np.diff(grid) > 0)
        # The half grid must mirror cleanly onto the full circle.
        spectrum = oracle.mirror_half_spectrum(grid, np.ones_like(grid))
        assert spectrum.angles_deg.shape[0] == 2 * (expected_points - 1)

    @pytest.mark.parametrize("resolution_deg", [0.3, 0.9, 1.0, 2.0])
    def test_full_circle_grid_excludes_360_exactly(self, resolution_deg):
        grid = default_angle_grid(resolution_deg, full_circle=True)
        assert grid.shape[0] == int(round(360.0 / resolution_deg))
        assert grid[0] == 0.0
        assert grid[-1] < 360.0
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("resolution_deg", [0.1, 0.3, 0.75, 0.9])
    def test_mirrored_grid_matches_default_full_circle_exactly(
            self, resolution_deg, capture_snapshots, deployed_ula8):
        # Regression: the mirror once built the full circle with
        # ``np.arange(0.0, 360.0, resolution)`` -- the float-accumulation
        # seam bug default_angle_grid was already cured of.  For
        # resolutions like 0.3 the accumulated points drift off the exact
        # grid (the mirror seam landed on 180.00000000000003 instead of
        # 180.0).  The frontend's mirrored grid must equal the canonical
        # full-circle grid bit for bit.
        config = SpectrumConfig(angle_resolution_deg=resolution_deg)
        spectrum = SpectrumComputer(config).compute(capture_snapshots,
                                                    deployed_ula8)
        full = default_angle_grid(resolution_deg, full_circle=True)
        assert np.array_equal(spectrum.angles_deg, full)
        seam = spectrum.angles_deg.shape[0] // 2
        assert spectrum.angles_deg[seam] == 180.0  # bitwise exact

    def test_frontend_mirrors_power_exactly(self, capture_snapshots,
                                            deployed_ula8):
        # P(360 - theta) = P(theta), bit for bit, endpoints excluded.
        config = SpectrumConfig(angle_resolution_deg=0.3,
                                apply_weighting=False)
        power = SpectrumComputer(config).compute(capture_snapshots,
                                                 deployed_ula8).power
        half_points = default_angle_grid(0.3, full_circle=False).shape[0]
        assert np.array_equal(power[half_points:],
                              power[1:half_points - 1][::-1])

    def test_power_lookup_interpolates_and_wraps(self):
        angles = default_angle_grid(1.0)
        power = np.zeros_like(angles)
        power[0] = 1.0
        spectrum = AoASpectrum(angles, power)
        assert spectrum.power_at_local(359.5)[0] == pytest.approx(0.5)
        assert spectrum.power_at_local(0.5)[0] == pytest.approx(0.5)

    def test_oracle_lookup_towards_a_point_uses_orientation(self):
        angles = default_angle_grid(1.0)
        power = np.zeros_like(angles)
        power[90] = 1.0  # local 90 degrees
        spectrum = AoASpectrum(angles, power, ap_position=Point2D(0.0, 0.0),
                               ap_orientation_deg=30.0)
        # Building bearing 120 degrees is local 90 degrees.
        target = Point2D(np.cos(np.radians(120.0)), np.sin(np.radians(120.0)))
        assert oracle.power_towards(spectrum, target) == pytest.approx(1.0)

    def test_oracle_power_towards_position(self):
        angles = default_angle_grid(1.0)
        power = np.ones_like(angles)
        power[45] = 10.0
        spectrum = AoASpectrum(angles, power, ap_position=Point2D(0.0, 0.0))
        towards_peak = oracle.power_towards(spectrum, Point2D(1.0, 1.0))
        assert towards_peak == pytest.approx(10.0)
        assert oracle.power_towards(spectrum, Point2D(0.0, 0.0)) == 0.0

    def test_normalized_and_scaled(self):
        angles = default_angle_grid(1.0)
        spectrum = AoASpectrum(angles, np.linspace(0, 2, len(angles)))
        assert spectrum.normalized().max_power == pytest.approx(1.0)
        assert spectrum.scaled(2.0).max_power == pytest.approx(4.0)
        with pytest.raises(EstimationError):
            spectrum.scaled(-1.0)


class TestPeaks:
    def _gaussian_spectrum(self, centers, widths, heights):
        angles = default_angle_grid(1.0)
        power = np.zeros_like(angles)
        for center, width, height in zip(centers, widths, heights, strict=True):
            distance = np.minimum(np.abs(angles - center), 360 - np.abs(angles - center))
            power += height * np.exp(-0.5 * (distance / width) ** 2)
        return AoASpectrum(angles, power)

    def test_finds_all_major_peaks(self):
        spectrum = self._gaussian_spectrum([50, 150, 260], [4, 5, 6], [1.0, 0.7, 0.4])
        peaks = find_peaks(spectrum, min_relative_height=0.1)
        found = sorted(round(p.angle_deg) for p in peaks)
        assert found == [50, 150, 260]
        # Strongest first.
        assert find_peaks(spectrum)[0].angle_deg == pytest.approx(50.0)

    def test_height_floor_filters_small_peaks(self):
        spectrum = self._gaussian_spectrum([50, 200], [4, 4], [1.0, 0.05])
        peaks = find_peaks(spectrum, min_relative_height=0.1)
        assert len(peaks) == 1

    def test_match_peak_tolerance(self):
        spectrum = self._gaussian_spectrum([50], [4], [1.0])
        peak = find_peaks(spectrum)[0]
        near = self._gaussian_spectrum([53], [4], [1.0])
        far = self._gaussian_spectrum([60], [4], [1.0])
        assert match_peak(peak, find_peaks(near), tolerance_deg=5.0) is not None
        assert match_peak(peak, find_peaks(far), tolerance_deg=5.0) is None

    def test_peak_regions_cover_the_lobe(self):
        spectrum = self._gaussian_spectrum([100], [8], [1.0])
        peak = find_peaks(spectrum)[0]
        mask = peak_regions(spectrum, peak)
        assert mask[peak.index]
        assert 10 < int(np.sum(mask)) < 120

    def test_empty_spectrum_has_no_peaks(self):
        angles = default_angle_grid(1.0)
        spectrum = AoASpectrum(angles, np.zeros_like(angles))
        assert find_peaks(spectrum) == []

    def test_match_peak_across_wraparound_seam(self):
        # 358 and 2 degrees are 4 degrees apart across the 0/360 seam of
        # the circular grid, well inside the paper's 5-degree tolerance.
        peak = find_peaks(self._gaussian_spectrum([358], [4], [1.0]))[0]
        near = find_peaks(self._gaussian_spectrum([2], [4], [1.0]))
        far = find_peaks(self._gaussian_spectrum([8], [4], [1.0]))
        assert match_peak(peak, near, tolerance_deg=5.0) is not None
        assert match_peak(peak, far, tolerance_deg=5.0) is None

    def test_peak_on_grid_edge_found_once_with_wrapping_lobe(self):
        spectrum = self._gaussian_spectrum([0], [6], [1.0])
        peaks = find_peaks(spectrum, min_relative_height=0.1)
        assert len(peaks) == 1
        assert peaks[0].index == 0
        mask = peak_regions(spectrum, peaks[0])
        # The lobe extends circularly to both sides of the seam.
        assert mask[0] and mask[1] and mask[-1]

    def test_plateau_peak_resolved_to_single_left_edge(self):
        angles = default_angle_grid(1.0)
        power = np.full_like(angles, 0.1)
        power[100:105] = 1.0
        peaks = find_peaks(AoASpectrum(angles, power))
        assert len(peaks) == 1
        assert peaks[0].index == 100
        assert peaks[0].prominence == pytest.approx(0.9)

    def test_plateau_across_wraparound_seam_found_once(self):
        angles = default_angle_grid(1.0)
        power = np.full_like(angles, 0.1)
        power[358:] = 1.0
        power[:3] = 1.0
        peaks = find_peaks(AoASpectrum(angles, power))
        assert len(peaks) == 1
        assert peaks[0].index == 358

    @pytest.mark.parametrize("kwargs", [
        {"max_peaks": -1},
        {"max_peaks": 1.5},
        {"max_peaks": True},
        {"min_relative_prominence": -0.1},
        {"min_relative_prominence": 1.5},
        {"min_relative_height": 1.5},
    ])
    def test_invalid_arguments_rejected(self, kwargs):
        spectrum = self._gaussian_spectrum([50, 150, 260], [4, 5, 6],
                                           [1.0, 0.7, 0.4])
        with pytest.raises(EstimationError):
            find_peaks(spectrum, **kwargs)

    def test_max_peaks_caps_strongest_first(self):
        spectrum = self._gaussian_spectrum([50, 150, 260], [4, 5, 6],
                                           [1.0, 0.7, 0.4])
        assert find_peaks(spectrum, max_peaks=0) == []
        capped = find_peaks(spectrum, max_peaks=np.int64(2))
        assert [round(peak.angle_deg) for peak in capped] == [50, 150]
