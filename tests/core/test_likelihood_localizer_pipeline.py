"""Tests for likelihood synthesis, hill climbing and the end-to-end localizer."""

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
    hill_climb,
    likelihood_at,
    refine_from_seeds,
    synthesize_likelihood,
)
from repro.errors import EstimationError
from repro.geometry import Point2D, bearing_deg, rectangular_room

from tests.core import _oracle

#: The public climb (a batch of one through ``refine_many``) and the serial
#: oracle climb must both behave as below.
CLIMBERS = pytest.mark.parametrize(
    "climb, refine",
    [(hill_climb, refine_from_seeds),
     (_oracle.hill_climb, _oracle.refine_from_seeds)],
    ids=["refine_many", "oracle"])


def _spectrum_towards(ap_position, target, width=3.0, orientation=0.0):
    """A synthetic spectrum whose single peak points from the AP at the target."""
    angles = default_angle_grid(1.0)
    bearing = (bearing_deg(ap_position, target) - orientation) % 360.0
    distance = np.minimum(np.abs(angles - bearing), 360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / width) ** 2) + 1e-4
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_orientation_deg=orientation)


class TestLikelihood:
    def test_synthetic_spectra_peak_at_target(self):
        target = Point2D(6.0, 4.0)
        spectra = [
            _spectrum_towards(Point2D(0.0, 0.0), target),
            _spectrum_towards(Point2D(12.0, 0.0), target, orientation=45.0),
            _spectrum_towards(Point2D(6.0, 9.0), target, orientation=180.0),
        ]
        heatmap = synthesize_likelihood(spectra, (0, 0, 12, 9), resolution_m=0.1)
        peak = heatmap.peak_position()
        assert peak.distance_to(target) < 0.2

    def test_likelihood_at_is_product(self):
        target = Point2D(5.0, 5.0)
        spectra = [_spectrum_towards(Point2D(0.0, 0.0), target),
                   _spectrum_towards(Point2D(10.0, 0.0), target)]
        combined = likelihood_at(spectra, target)
        individual = [s.power_towards(target) for s in spectra]
        assert combined == pytest.approx(individual[0] * individual[1])

    def test_floor_prevents_single_ap_veto(self):
        target = Point2D(5.0, 5.0)
        good = _spectrum_towards(Point2D(0.0, 0.0), target)
        # The blind AP's only peak points far away from the target's bearing.
        blind = _spectrum_towards(Point2D(10.0, 0.0), Point2D(20.0, 9.0))
        without_floor = likelihood_at([good, blind], target, floor=0.0)
        with_floor = likelihood_at([good, blind], target, floor=0.05)
        assert with_floor > without_floor

    def test_heatmap_validation_and_top_positions(self):
        with pytest.raises(EstimationError):
            LikelihoodMap(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)))
        target = Point2D(6.0, 4.0)
        spectra = [_spectrum_towards(Point2D(0.0, 0.0), target),
                   _spectrum_towards(Point2D(12.0, 0.0), target)]
        heatmap = synthesize_likelihood(spectra, (0, 0, 12, 9), resolution_m=0.25)
        tops = heatmap.top_positions(3)
        assert len(tops) == 3
        # Seeds are mutually separated.
        assert tops[0][0].distance_to(tops[1][0]) >= 3 * heatmap.resolution_m
        assert tops[0][1] >= tops[1][1] >= tops[2][1]

    def test_flat_map_ties_go_to_the_lowest_flat_index(self):
        """Exact ties rank by flat index, as in ``peak_position``.

        The old full sort reversed an unstable ``argsort`` and put
        (4.5, 2.5) first on this map.
        """
        heatmap = LikelihoodMap(0.5 * np.arange(10), 0.5 * np.arange(6),
                                np.ones((6, 10)))
        tops = heatmap.top_positions(3)
        assert tops[0][0] == heatmap.peak_position() == Point2D(0.0, 0.0)
        assert [position for position, _ in tops] == [
            Point2D(0.0, 0.0), Point2D(1.5, 0.0), Point2D(3.0, 0.0)]

    def test_top_positions_grows_its_candidate_budget(self):
        """A seed outside the first selection budget is still found.

        The 50 best cells fill two 5x5 squares, each within three cells of
        its centre, so the 48 cells of the first budget (16 per seed)
        yield only two seeds and the third needs a larger budget.
        """
        values = np.zeros((20, 20))
        values[0:5, 0:5] = 2.9 - 0.001 * np.arange(25).reshape(5, 5)
        values[2, 2] = 3.0
        values[8:13, 8:13] = 1.9 - 0.001 * np.arange(25).reshape(5, 5)
        values[10, 10] = 2.0
        values[17, 17] = 0.5
        heatmap = LikelihoodMap(np.arange(20.0), np.arange(20.0), values)
        assert heatmap.top_positions(3) == [
            (Point2D(2.0, 2.0), 3.0), (Point2D(10.0, 10.0), 2.0),
            (Point2D(17.0, 17.0), 0.5)]

    def test_spectra_without_position_rejected(self):
        angles = default_angle_grid(1.0)
        spectrum = AoASpectrum(angles, np.ones_like(angles))
        with pytest.raises(EstimationError):
            synthesize_likelihood([spectrum], (0, 0, 1, 1))

    def test_degenerate_single_column_bounds(self):
        # Regression: bounds tighter than one grid cell along x collapse
        # the map to a single column; ``resolution_m`` read x_coords[1]
        # unconditionally and died with a bare IndexError, taking
        # top_positions and hill-climb seeding down with it.
        target = Point2D(5.04, 4.0)
        spectra = [_spectrum_towards(Point2D(5.0, 0.0), target),
                   _spectrum_towards(Point2D(5.1, 9.0), target)]
        heatmap = synthesize_likelihood(spectra, (5.0, 0.0, 5.05, 9.0),
                                        resolution_m=0.1)
        assert heatmap.values.shape[1] == 1
        # The one-cell x axis answers with the y spacing.
        assert heatmap.resolution_m == pytest.approx(0.1)
        tops = heatmap.top_positions(3)
        assert len(tops) >= 1
        assert all(position.x == 5.0 for position, _ in tops)

    def test_degenerate_single_cell_map(self):
        target = Point2D(5.0, 4.0)
        spectra = [_spectrum_towards(Point2D(0.0, 4.0), target)]
        heatmap = synthesize_likelihood(spectra, (5.0, 4.0, 5.04, 4.04),
                                        resolution_m=0.1)
        assert heatmap.values.shape == (1, 1)
        assert heatmap.resolution_m == 0.0
        [(position, value)] = heatmap.top_positions(3)
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


class TestHillClimbing:
    @CLIMBERS
    def test_converges_to_smooth_maximum(self, climb, refine):
        target = Point2D(3.0, 4.0)

        def likelihood(p):
            return float(np.exp(-((p.x - target.x) ** 2 + (p.y - target.y) ** 2)))

        result = climb(likelihood, Point2D(2.5, 3.5), initial_step_m=0.2,
                       min_step_m=0.001)
        assert result.position.distance_to(target) < 0.01
        assert result.iterations > 1

    @CLIMBERS
    def test_refine_from_seeds_picks_best_basin(self, climb, refine):
        def likelihood(p):
            # Two bumps; the one at (8, 8) is higher.
            return (np.exp(-((p.x - 2) ** 2 + (p.y - 2) ** 2))
                    + 2 * np.exp(-((p.x - 8) ** 2 + (p.y - 8) ** 2)))

        result = refine(likelihood,
                        [(Point2D(2.2, 2.2), 1.0), (Point2D(7.5, 7.5), 1.5)],
                        initial_step_m=0.2, min_step_m=0.001)
        assert result.position.distance_to(Point2D(8.0, 8.0)) < 0.05

    @CLIMBERS
    def test_parameter_validation(self, climb, refine):
        with pytest.raises(EstimationError):
            climb(lambda p: 0.0, Point2D(0, 0), initial_step_m=0.0)
        with pytest.raises(EstimationError):
            refine(lambda p: 0.0, [])

    def test_zero_budget_rejected(self):
        # The serial climb used to spend one evaluation anyway; the batch of
        # one rejects the budget exactly as refine_many does.
        with pytest.raises(EstimationError, match="max_evaluations"):
            hill_climb(lambda p: 0.0, Point2D(0, 0), max_evaluations=0)


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

    def test_keep_heatmap_option(self, room_setup):
        room, builder, arrays = room_setup
        client = Point2D(7.3, 4.6)
        spectra = self._spectra_for(builder, arrays, client)
        estimator = BatchLocalizer(room.bounding_box(0.5),
                                   LocalizerConfig(grid_resolution_m=0.5,
                                                   keep_heatmap=True))
        estimate = estimator.estimate_batch({"": spectra})[""]
        assert estimate.heatmap is not None
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
