"""Tests for the batched localization engine and the geometry caches."""

import numpy as np
import pytest

from repro.array import ArrayGeometry
from repro.core import (
    AoASpectrum,
    BatchLocalizer,
    BearingGridCache,
    LocalizerConfig,
    SteeringCache,
    clear_default_caches,
    count_distinct_sources,
    default_angle_grid,
    default_steering_cache,
    grid_axes,
    music_spectrum,
)
from repro.errors import EstimationError
from repro.geometry import Point2D, bearing_deg

from tests.core._oracle import likelihood_at, synthesize_likelihood

BOUNDS = (0.0, 0.0, 12.0, 8.0)
AP_SITES = [
    (Point2D(0.5, 0.5), 30.0),
    (Point2D(11.5, 0.5), 120.0),
    (Point2D(6.0, 7.5), 250.0),
    (Point2D(0.5, 7.5), 0.0),
]


def _spectrum_towards(ap_position, target, orientation=0.0, width=4.0,
                      ap_id="", seed=None):
    """A synthetic spectrum peaking at the target's bearing from the AP."""
    angles = default_angle_grid(1.0)
    bearing = (bearing_deg(ap_position, target) - orientation) % 360.0
    distance = np.minimum(np.abs(angles - bearing), 360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / width) ** 2) + 1e-4
    if seed is not None:
        power = power + 0.05 * np.random.default_rng(seed).random(angles.shape[0])
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_orientation_deg=orientation, ap_id=ap_id)


def _client_spectra(target, seed, ap_ids=True, sites=None):
    sites = AP_SITES if sites is None else sites
    return [
        _spectrum_towards(position, target, orientation,
                          ap_id=f"ap{index}" if ap_ids else "",
                          seed=seed * 100 + index)
        for index, (position, orientation) in enumerate(sites)
    ]


class TestSteeringCache:
    def _geometry(self):
        return ArrayGeometry.uniform_linear(4)

    def test_hit_and_miss_accounting(self):
        cache = SteeringCache()
        geometry = self._geometry()
        angles = default_angle_grid(2.0, full_circle=False)
        first = cache.get(geometry, angles, 0.125)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = cache.get(geometry, angles, 0.125)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert second is first
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_entries_match_direct_computation_and_are_readonly(self):
        cache = SteeringCache()
        geometry = self._geometry()
        angles = default_angle_grid(2.0, full_circle=False)
        cached = cache.get(geometry, angles, 0.125)
        direct = geometry.steering_matrix(angles, 0.0, 0.125)
        np.testing.assert_array_equal(cached, direct)
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0

    def test_key_distinguishes_geometry_grid_wavelength(self):
        cache = SteeringCache()
        geometry = self._geometry()
        angles = default_angle_grid(2.0, full_circle=False)
        cache.get(geometry, angles, 0.125)
        cache.get(ArrayGeometry.uniform_linear(6), angles, 0.125)
        cache.get(geometry, default_angle_grid(1.0, full_circle=False), 0.125)
        cache.get(geometry, angles, 0.0612)
        assert cache.stats.misses == 4 and cache.stats.hits == 0
        assert len(cache) == 4

    def test_lru_eviction(self):
        cache = SteeringCache(max_entries=2)
        geometry = self._geometry()
        angles = default_angle_grid(2.0, full_circle=False)
        cache.get(geometry, angles, 0.125)
        cache.get(geometry, angles, 0.0612)
        cache.get(geometry, angles, 0.25)          # evicts the 0.125 entry
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.get(geometry, angles, 0.125)         # miss again
        assert cache.stats.misses == 4

    def test_music_spectrum_populates_default_cache(self):
        clear_default_caches()
        cache = default_steering_cache()
        cache.stats.reset()
        geometry = self._geometry()
        angles = default_angle_grid(2.0, full_circle=False)
        rng = np.random.default_rng(3)
        samples = (rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32)))
        covariance = samples @ samples.conj().T / 32
        music_spectrum(covariance, geometry, angles, num_sources=1)
        assert cache.stats.misses >= 1
        before_hits = cache.stats.hits
        music_spectrum(covariance, geometry, angles, num_sources=1)
        assert cache.stats.hits > before_hits


class TestBearingGridCache:
    def test_hit_and_miss_accounting(self):
        cache = BearingGridCache()
        first = cache.get(BOUNDS, 0.5, Point2D(1.0, 1.0))
        second = cache.get(BOUNDS, 0.5, Point2D(1.0, 1.0))
        assert second is first
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        cache.get(BOUNDS, 0.5, Point2D(2.0, 1.0))
        cache.get(BOUNDS, 0.25, Point2D(1.0, 1.0))
        assert cache.stats.misses == 3

    def test_bearings_match_pointwise_computation(self):
        cache = BearingGridCache()
        ap = Point2D(3.0, 2.0)
        grid = cache.get(BOUNDS, 1.0, ap)
        x_coords, y_coords = grid_axes(BOUNDS, 1.0)
        np.testing.assert_array_equal(grid.x_coords, x_coords)
        np.testing.assert_array_equal(grid.y_coords, y_coords)
        bearings = grid.bearings_deg.reshape(grid.shape)
        for row in range(0, grid.shape[0], 3):
            for column in range(0, grid.shape[1], 3):
                cell = Point2D(float(x_coords[column]), float(y_coords[row]))
                if cell.distance_to(ap) < 1e-9:
                    continue
                assert bearings[row, column] == pytest.approx(
                    bearing_deg(ap, cell), abs=1e-9)

    def test_bearings_stay_below_360_and_match_bearing_deg(self):
        """A bearing a hair below 0 used to wrap to exactly 360.0."""
        ap = Point2D(-1.0, 1e-15)
        grid = BearingGridCache().get((0.0, 0.0, 2.0, 1.0), 0.5, ap)
        x_coords, y_coords = grid_axes((0.0, 0.0, 2.0, 1.0), 0.5)
        assert np.all(grid.bearings_deg < 360.0)
        expected = [bearing_deg(ap, Point2D(float(x), float(y)))
                    for y in y_coords for x in x_coords]
        assert grid.bearings_deg.tolist() == expected

    def test_collocated_cells_are_flagged(self):
        grid = BearingGridCache().get(BOUNDS, 0.5, Point2D(1.0, 1.0))
        assert grid.collocated.tolist() == [2 * grid.shape[1] + 2]
        assert BearingGridCache().get(
            BOUNDS, 0.5, Point2D(1.1, 1.0)).collocated.shape == (0,)

    def test_entries_are_readonly(self):
        cache = BearingGridCache()
        grid = cache.get(BOUNDS, 1.0, Point2D(0.0, 0.0))
        with pytest.raises(ValueError):
            grid.bearings_deg[0] = 0.0

    def test_heatmaps_use_supplied_cache(self):
        cache = BearingGridCache()
        target = Point2D(6.0, 4.0)
        spectra = _client_spectra(target, seed=1)
        config = LocalizerConfig(grid_resolution_m=0.5)
        BatchLocalizer(BOUNDS, config, cache).heatmaps({"c": spectra})
        assert cache.stats.misses == len(spectra)
        # A second localizer builds its own placement tables from the
        # shared bearing grids.
        BatchLocalizer(BOUNDS, config, cache).heatmaps({"c": spectra})
        assert cache.stats.hits == len(spectra)


class TestBatchSingleParity:
    def _targets(self, count):
        rng = np.random.default_rng(77)
        return [Point2D(rng.uniform(1.0, 11.0), rng.uniform(1.0, 7.0))
                for _ in range(count)]

    @pytest.mark.parametrize("refine", [True, False])
    def test_batch_matches_sequential(self, refine):
        config = LocalizerConfig(grid_resolution_m=0.5,
                                 refine_with_hill_climbing=refine)
        estimator = BatchLocalizer(BOUNDS, config)
        batch = {f"c{i}": _client_spectra(target, seed=i)
                 for i, target in enumerate(self._targets(8))}
        sequential = {key: estimator.estimate_batch({key: spectra})[key]
                      for key, spectra in batch.items()}
        batched = estimator.estimate_batch(batch)
        for key in batch:
            assert batched[key].position.distance_to(
                sequential[key].position) <= 1e-9
            assert batched[key].likelihood == pytest.approx(
                sequential[key].likelihood, rel=1e-12)
            assert batched[key].num_aps == sequential[key].num_aps
            assert batched[key].client_id == key

    def test_ragged_batch_matches_sequential(self):
        """Clients heard by different AP subsets (and orders) still agree."""
        estimator = BatchLocalizer(
            BOUNDS, LocalizerConfig(grid_resolution_m=0.5))
        targets = self._targets(4)
        batch = {
            "c0": _client_spectra(targets[0], seed=0),
            "c1": _client_spectra(targets[1], seed=1,
                                  sites=AP_SITES[:3]),
            "c2": _client_spectra(targets[2], seed=2,
                                  sites=list(reversed(AP_SITES))),
            "c3": _client_spectra(targets[3], seed=3,
                                  sites=AP_SITES[1:]),
        }
        sequential = {key: estimator.estimate_batch({key: spectra})[key]
                      for key, spectra in batch.items()}
        batched = estimator.estimate_batch(batch)
        for key in batch:
            assert batched[key].position.distance_to(
                sequential[key].position) <= 1e-9

    def test_heatmaps_equal_oracle_synthesis_per_client(self):
        config = LocalizerConfig(grid_resolution_m=0.5)
        batch = {f"c{i}": _client_spectra(target, seed=i)
                 for i, target in enumerate(self._targets(3))}
        heatmaps = BatchLocalizer(BOUNDS, config).heatmaps(batch)
        assert list(heatmaps) == list(batch)
        for key, spectra in batch.items():
            reference = synthesize_likelihood(
                spectra, BOUNDS, 0.5, floor=config.spectrum_floor)
            np.testing.assert_array_equal(heatmaps[key].x_coords,
                                          reference.x_coords)
            np.testing.assert_array_equal(heatmaps[key].y_coords,
                                          reference.y_coords)
            np.testing.assert_array_equal(heatmaps[key].values,
                                          reference.values)

    @pytest.mark.parametrize("floor", [0.0, 0.02])
    def test_ap_cell_matches_likelihood_at(self, floor):
        """The grid rates an AP's own cell like a point there: zero.

        The fold used to take the bearing ``arctan2(0, 0) = 0`` there,
        while the per-point reference (``likelihood_at``) rates the cell
        0.0 before the floor.
        """
        sites = [(Point2D(1.0, 1.0), 30.0)] + AP_SITES[1:]
        spectra = _client_spectra(Point2D(6.0, 4.0), seed=5, sites=sites)
        config = LocalizerConfig(grid_resolution_m=0.5, spectrum_floor=floor)
        heatmap = BatchLocalizer(BOUNDS, config).heatmaps({"": spectra})[""]
        expected = likelihood_at([s.normalized() for s in spectra],
                                 Point2D(1.0, 1.0), floor=floor)
        assert heatmap.values[2, 2] == expected
        assert (heatmap.values[2, 2] == 0.0) == (floor == 0.0)

    def test_empty_batch_and_empty_client_are_rejected(self):
        estimator = BatchLocalizer(BOUNDS, LocalizerConfig())
        with pytest.raises(EstimationError):
            estimator.estimate_batch({})
        with pytest.raises(EstimationError):
            estimator.estimate_batch({"c": []})


class TestCountDistinctSources:
    def test_mixed_named_and_anonymous_spectra(self):
        """The seed undercounted when only some spectra carried an ap_id."""
        target = Point2D(6.0, 4.0)
        named = _spectrum_towards(AP_SITES[0][0], target, ap_id="ap0")
        other = _spectrum_towards(AP_SITES[1][0], target, ap_id="ap1")
        anonymous = _spectrum_towards(AP_SITES[2][0], target)
        assert count_distinct_sources([named, other, anonymous]) == 3
        assert count_distinct_sources([named, named]) == 1
        assert count_distinct_sources([anonymous, anonymous]) == 2
        assert count_distinct_sources([]) == 0

    def test_estimate_num_aps_counts_mixed_sources(self):
        estimator = BatchLocalizer(
            BOUNDS, LocalizerConfig(grid_resolution_m=0.5,
                                    refine_with_hill_climbing=False))
        target = Point2D(6.0, 4.0)
        spectra = [
            _spectrum_towards(AP_SITES[0][0], target, ap_id="ap0"),
            _spectrum_towards(AP_SITES[1][0], target),    # anonymous
            _spectrum_towards(AP_SITES[2][0], target),    # anonymous
        ]
        assert estimator.estimate_batch({"": spectra})[""].num_aps == 3
