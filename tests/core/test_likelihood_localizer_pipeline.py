"""Tests for likelihood synthesis, heatmaps and the end-to-end localizer."""

import numpy as np
import pytest

from repro.array import ArrayGeometry, ArrayReceiver, DeployedArray
from repro.channel import ChannelBuilder, ChannelModelConfig
from repro.core import (
    AoASpectrum,
    BatchLocalizer,
    LikelihoodMap,
    LocalizerConfig,
    SpectrumComputer,
    SpectrumConfig,
    default_angle_grid,
)
from repro.core.likelihood import greedy_seeds
from repro.errors import EstimationError
from repro.geometry import Point2D, bearing_deg, rectangular_room


def _spectrum_towards(ap_position, target, width=3.0, orientation=0.0):
    """A synthetic spectrum whose single peak points from the AP at the target."""
    angles = default_angle_grid(1.0)
    bearing = (bearing_deg(ap_position, target) - orientation) % 360.0
    distance = np.minimum(np.abs(angles - bearing), 360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / width) ** 2) + 1e-4
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_orientation_deg=orientation)


def _heatmap(spectra, bounds, resolution_m, **config):
    """One client's full Equation 8 map from :meth:`BatchLocalizer.heatmaps`."""
    localizer = BatchLocalizer(bounds, LocalizerConfig(
        grid_resolution_m=resolution_m, **config))
    return localizer.heatmaps({"c": spectra})["c"]


def _greedy(heatmap, count):
    """The Section 2.5 seed rule over every cell of ``heatmap``."""
    values = heatmap.values.ravel()
    cells = np.arange(values.shape[0])
    seeds = greedy_seeds(np.zeros_like(cells), cells, values, 1,
                         heatmap.x_coords, heatmap.y_coords, count)[0]
    num_x = heatmap.x_coords.shape[0]
    return [(Point2D(float(heatmap.x_coords[cell % num_x]),
                     float(heatmap.y_coords[cell // num_x])),
             float(values[cell]))
            for cell in seeds[seeds >= 0].tolist()]


class TestLikelihood:
    def test_synthetic_spectra_peak_at_target(self):
        target = Point2D(6.0, 4.0)
        spectra = [
            _spectrum_towards(Point2D(0.0, 0.0), target),
            _spectrum_towards(Point2D(12.0, 0.0), target, orientation=45.0),
            _spectrum_towards(Point2D(6.0, 9.0), target, orientation=180.0),
        ]
        heatmap = _heatmap(spectra, (0, 0, 12, 9), 0.1)
        peak = heatmap.peak_position()
        assert peak.distance_to(target) < 0.2

    def test_likelihood_is_the_product_of_per_ap_maps(self):
        target = Point2D(5.0, 5.0)
        spectra = [_spectrum_towards(Point2D(0.0, 0.0), target),
                   _spectrum_towards(Point2D(10.0, 0.0), target)]
        localizer = BatchLocalizer((0, 0, 10, 10), LocalizerConfig(
            grid_resolution_m=0.5, spectrum_floor=0.0))
        maps = localizer.heatmaps({"both": spectra, "first": spectra[:1],
                                   "second": spectra[1:]})
        np.testing.assert_array_equal(
            maps["both"].values, maps["first"].values * maps["second"].values)

    def test_floor_prevents_single_ap_veto(self):
        target = Point2D(5.0, 5.0)
        good = _spectrum_towards(Point2D(0.0, 0.0), target)
        # The blind AP's only peak points far away from the target's bearing.
        blind = _spectrum_towards(Point2D(10.0, 0.0), Point2D(20.0, 9.0))
        without_floor, with_floor = (
            _heatmap([good, blind], (0, 0, 10, 10), 0.5, spectrum_floor=floor)
            .values[10, 10] for floor in (0.0, 0.05))
        assert with_floor > without_floor

    def test_heatmap_validation_and_seeds(self):
        with pytest.raises(EstimationError):
            LikelihoodMap(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)))
        target = Point2D(6.0, 4.0)
        spectra = [_spectrum_towards(Point2D(0.0, 0.0), target),
                   _spectrum_towards(Point2D(12.0, 0.0), target)]
        localizer = BatchLocalizer((0, 0, 12, 9),
                                   LocalizerConfig(grid_resolution_m=0.25))
        tops = localizer.seeds({"c": spectra}, 3)["c"]
        assert len(tops) == 3
        # Seeds are mutually separated.
        assert tops[0][0].distance_to(tops[1][0]) >= 3 * 0.25
        assert tops[0][1] >= tops[1][1] >= tops[2][1]

    def test_flat_map_ties_go_to_the_lowest_flat_index(self):
        """Exact ties rank by flat index, as in ``peak_position``.

        The old full sort reversed an unstable ``argsort`` and put
        (4.5, 2.5) first on this map.
        """
        heatmap = LikelihoodMap(0.5 * np.arange(10), 0.5 * np.arange(6),
                                np.ones((6, 10)))
        tops = _greedy(heatmap, 3)
        assert tops[0][0] == heatmap.peak_position() == Point2D(0.0, 0.0)
        assert [position for position, _ in tops] == [
            Point2D(0.0, 0.0), Point2D(1.5, 0.0), Point2D(3.0, 0.0)]

    def test_greedy_seeds_skip_cells_near_earlier_seeds(self):
        """The 50 best cells fill two 5x5 squares, each within three cells
        of its centre, so the third seed comes from far down the ranking."""
        values = np.zeros((20, 20))
        values[0:5, 0:5] = 2.9 - 0.001 * np.arange(25).reshape(5, 5)
        values[2, 2] = 3.0
        values[8:13, 8:13] = 1.9 - 0.001 * np.arange(25).reshape(5, 5)
        values[10, 10] = 2.0
        values[17, 17] = 0.5
        heatmap = LikelihoodMap(np.arange(20.0), np.arange(20.0), values)
        assert _greedy(heatmap, 3) == [
            (Point2D(2.0, 2.0), 3.0), (Point2D(10.0, 10.0), 2.0),
            (Point2D(17.0, 17.0), 0.5)]

    def test_spectra_without_position_rejected(self):
        angles = default_angle_grid(1.0)
        spectrum = AoASpectrum(angles, np.ones_like(angles))
        with pytest.raises(EstimationError):
            _heatmap([spectrum], (0, 0, 1, 1), 0.1)

    def test_degenerate_single_column_bounds(self):
        # Regression: bounds tighter than one grid cell along x collapse
        # the map to a single column; ``resolution_m`` read x_coords[1]
        # unconditionally and died with a bare IndexError, taking
        # hill-climb seeding down with it.
        target = Point2D(5.04, 4.0)
        spectra = [_spectrum_towards(Point2D(5.0, 0.0), target),
                   _spectrum_towards(Point2D(5.1, 9.0), target)]
        bounds = (5.0, 0.0, 5.05, 9.0)
        heatmap = _heatmap(spectra, bounds, 0.1)
        assert heatmap.values.shape[1] == 1
        # The one-cell x axis answers with the y spacing.
        assert heatmap.resolution_m == pytest.approx(0.1)
        tops = BatchLocalizer(bounds, LocalizerConfig(
            grid_resolution_m=0.1)).seeds({"c": spectra}, 3)["c"]
        assert len(tops) >= 1
        assert all(position.x == 5.0 for position, _ in tops)

    def test_degenerate_single_cell_map(self):
        target = Point2D(5.0, 4.0)
        spectra = [_spectrum_towards(Point2D(0.0, 4.0), target)]
        bounds = (5.0, 4.0, 5.04, 4.04)
        heatmap = _heatmap(spectra, bounds, 0.1)
        assert heatmap.values.shape == (1, 1)
        assert heatmap.resolution_m == 0.0
        [(position, value)] = BatchLocalizer(bounds, LocalizerConfig(
            grid_resolution_m=0.1)).seeds({"c": spectra}, 3)["c"]
        assert (position.x, position.y) == (5.0, 4.0)
        assert value == heatmap.values[0, 0]

    def test_estimator_survives_degenerate_bounds(self):
        # End to end: grid seeding plus hill climbing on a one-column map.
        target = Point2D(5.02, 4.0)
        spectra = [_spectrum_towards(Point2D(5.0, 0.0), target),
                   _spectrum_towards(Point2D(5.1, 9.0), target)]
        estimator = BatchLocalizer(
            (5.0, 0.0, 5.05, 9.0), LocalizerConfig(grid_resolution_m=0.1))
        estimate = estimator.estimate_batch({"edge": spectra})["edge"]
        assert 5.0 <= estimate.position.x <= 5.05
        assert estimate.likelihood > 0.0


class TestLocalizerConfigValidation:
    @pytest.mark.parametrize("resolution", [float("nan"), float("inf"),
                                            0.0, -0.1])
    def test_rejects_bad_grid_resolution(self, resolution):
        with pytest.raises(EstimationError, match="grid_resolution_m"):
            LocalizerConfig(grid_resolution_m=resolution)

    @pytest.mark.parametrize("count", [2.0, 2.5, True, "3"])
    def test_rejects_non_int_seed_count(self, count):
        with pytest.raises(EstimationError, match="num_seeds must be an int"):
            LocalizerConfig(num_seeds=count)


class TestEndToEndLocalization:
    @pytest.fixture
    def room_setup(self):
        room = rectangular_room(20.0, 10.0)
        builder = ChannelBuilder(room, ChannelModelConfig(max_reflections=1))
        geometry = ArrayGeometry.uniform_linear(8)
        sites = [(Point2D(1.0, 1.0), 45.0), (Point2D(19.0, 1.0), 135.0),
                 (Point2D(10.0, 9.5), 0.0)]
        arrays = [DeployedArray(geometry, position=p, orientation_deg=o)
                  for p, o in sites]
        return room, builder, arrays

    def _spectra_for(self, builder, arrays, client, seed=0):
        computer = SpectrumComputer(SpectrumConfig())
        spectra = []
        rng = np.random.default_rng(seed)
        for index, array in enumerate(arrays):
            channel = builder.build(client, array.position, client_id="c",
                                    ap_id=str(index))
            snapshots = ArrayReceiver(array, apply_phase_offsets=False).capture(
                channel, num_snapshots=10, snr_db=25.0, rng=rng)
            spectra.append(computer.compute(snapshots, array))
        return spectra

    def test_three_ap_localization_is_sub_metre_median(self, room_setup):
        room, builder, arrays = room_setup
        estimator = BatchLocalizer(room.bounding_box(0.5),
                                   LocalizerConfig(grid_resolution_m=0.2,
                                                   spectrum_floor=0.05))
        errors = []
        rng = np.random.default_rng(1)
        for trial in range(6):
            client = Point2D(float(rng.uniform(4, 16)), float(rng.uniform(3, 8)))
            spectra = self._spectra_for(builder, arrays, client, seed=trial)
            estimate = estimator.estimate_batch({"c": spectra})["c"]
            errors.append(estimate.error_to(client))
        assert float(np.median(errors)) < 1.0

    def test_hill_climbing_refines_grid_estimate(self, room_setup):
        room, builder, arrays = room_setup
        client = Point2D(7.3, 4.6)
        spectra = self._spectra_for(builder, arrays, client)
        coarse = BatchLocalizer(room.bounding_box(0.5),
                                LocalizerConfig(grid_resolution_m=0.5,
                                                refine_with_hill_climbing=False))
        refined = BatchLocalizer(room.bounding_box(0.5),
                                 LocalizerConfig(grid_resolution_m=0.5))
        coarse_estimate = coarse.estimate_batch({"": spectra})[""]
        refined_estimate = refined.estimate_batch({"": spectra})[""]
        # Hill climbing maximizes the likelihood; it must never return a less
        # likely point than the best grid cell it started from.
        assert refined_estimate.likelihood >= coarse_estimate.likelihood - 1e-12
        assert refined_estimate.error_to(client) <= coarse_estimate.error_to(client) + 0.3

    def test_heatmaps_peak_at_the_grid_fix(self, room_setup):
        room, builder, arrays = room_setup
        client = Point2D(7.3, 4.6)
        spectra = self._spectra_for(builder, arrays, client)
        estimator = BatchLocalizer(room.bounding_box(0.5),
                                   LocalizerConfig(
                                       grid_resolution_m=0.5,
                                       refine_with_hill_climbing=False))
        heatmap = estimator.heatmaps({"": spectra})[""]
        estimate = estimator.estimate_batch({"": spectra})[""]
        assert heatmap.peak_position() == estimate.position
        assert float(np.max(heatmap.values)) == estimate.likelihood
        assert estimate.num_aps == 3

    def test_estimator_requires_spectra(self, room_setup):
        room, _, _ = room_setup
        estimator = BatchLocalizer(room.bounding_box(0.5))
        with pytest.raises(EstimationError):
            estimator.estimate_batch({"": []})

    def test_invalid_bounds_rejected(self):
        with pytest.raises(EstimationError):
            BatchLocalizer((0, 0, 0, 10))


class TestSpectrumComputerPipeline:
    def test_unoptimized_spectrum_is_mirror_symmetric(self, deployed_ula8,
                                                      two_path_channel, rng):
        receiver = ArrayReceiver(deployed_ula8, apply_phase_offsets=False)
        snapshots = receiver.capture(two_path_channel, 10, 25.0, rng=rng)
        computer = SpectrumComputer(SpectrumConfig(apply_weighting=False))
        spectrum = computer.compute(snapshots, deployed_ula8)
        assert spectrum.power_at_local(60.0)[0] == pytest.approx(
            spectrum.power_at_local(300.0)[0], rel=1e-6)

    def test_estimator_method_switch(self, deployed_ula8, two_path_channel, rng):
        receiver = ArrayReceiver(deployed_ula8, apply_phase_offsets=False)
        snapshots = receiver.capture(two_path_channel, 10, 25.0, rng=rng)
        for method in ("music", "bartlett", "capon"):
            computer = SpectrumComputer(SpectrumConfig(method=method,
                                                       apply_weighting=False))
            spectrum = computer.compute(snapshots, deployed_ula8)
            peak_angle = spectrum.angles_deg[int(np.argmax(spectrum.power))]
            folded = min(peak_angle, 360 - peak_angle)
            assert folded == pytest.approx(60.0, abs=8.0) or folded == pytest.approx(
                120.0, abs=8.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(EstimationError):
            SpectrumConfig(method="esprit")
