"""Hill-climb edge cases and vectorized refiner / serial oracle equality.

The vectorized refiner (:func:`repro.core.optimizer.refine_many`) is the one
climb body in ``src/``; :func:`_climb` and :func:`_refine` below drive it
with one scalar objective, the shape of the serial oracle climber.  It
promises bit-for-bit the results of the serial per-candidate climber kept
in ``tests/core/_oracle.py`` -- same
first-improvement tie-breaking, same evaluation-budget accounting, same
first-seed-wins selection.  These tests pin down the edge cases that make
that promise meaningful (budget exhausted mid-neighbour-scan, plateaus,
ties), check it as a Hypothesis property, and assert end-to-end equality of
:class:`repro.core.batch.BatchLocalizer` against the serial reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batch as batch_module
from repro.core.batch import BatchLocalizer
from repro.core.localizer import LocalizerConfig
from repro.core.optimizer import refine_many
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.errors import EstimationError
from repro.geometry.vector import Point2D, bearing_deg

from tests.core import _oracle
from tests.core._oracle import reference_refinement

def _batch_adapter(functions):
    """Wrap per-unit scalar objectives as a refine_many batch evaluator."""

    def evaluate(units, xs, ys):
        return np.array([functions[unit](Point2D(x, y))
                         for unit, x, y in zip(units, xs, ys, strict=True)])

    return evaluate


def _climb(likelihood, start, initial_step_m=0.05, min_step_m=0.005,
           max_evaluations=400):
    """One climber of a scalar objective through refine_many."""
    [result] = refine_many(_batch_adapter([likelihood]), [[(start, 0.0)]],
                           initial_step_m, min_step_m, max_evaluations)
    return result


def _refine(likelihood, seeds, initial_step_m=0.05, min_step_m=0.005):
    """Every seed of one scalar objective through refine_many."""
    [result] = refine_many(_batch_adapter([likelihood]), [seeds],
                           initial_step_m, min_step_m)
    return result


#: The array climb (through the scalar adapter) and the serial oracle
#: climb; pinned expectations must hold for both.
CLIMBERS = pytest.mark.parametrize(
    "climb, refine", [(_climb, _refine),
                      (_oracle.hill_climb, _oracle.refine_from_seeds)],
    ids=["refine_many", "oracle"])


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


def _assert_same(vectorized, serial):
    assert vectorized.position.x == serial.position.x
    assert vectorized.position.y == serial.position.y
    assert vectorized.value == serial.value
    assert vectorized.iterations == serial.iterations


class TestPlateauTermination:
    """Equal-value neighbours never move the climber; the step decays."""

    @CLIMBERS
    def test_plateau_halves_until_min_step(self, climb, refine):
        flat = lambda p: 1.0  # noqa: E731
        result = climb(flat, Point2D(2.0, 3.0),
                       initial_step_m=0.05, min_step_m=0.005)
        # Steps 0.05, 0.025, 0.0125, 0.00625 each scan all four neighbours
        # without improvement, then 0.003125 < min_step terminates.
        assert result.position == Point2D(2.0, 3.0)
        assert result.value == 1.0
        assert result.iterations == 1 + 4 * 4

    def test_vectorized_matches_serial_on_plateau(self):
        flat = lambda p: 1.0  # noqa: E731
        serial = _oracle.refine_from_seeds(
            flat, [(Point2D(2.0, 3.0), 1.0)],
            initial_step_m=0.05, min_step_m=0.005)
        [vectorized] = refine_many(_batch_adapter([flat]),
                                   [[(Point2D(2.0, 3.0), 1.0)]],
                                   initial_step_m=0.05, min_step_m=0.005)
        _assert_same(vectorized, serial)


class TestEvaluationBudget:
    """max_evaluations stops the scan mid-neighbour, exactly."""

    @CLIMBERS
    def test_budget_exhausted_mid_scan_without_improvement(self, climb,
                                                           refine):
        # Only the fourth probe direction (-y) improves, but the budget of
        # 3 dies after the second neighbour: the climber must stay put and
        # report exactly 3 evaluations.
        downhill = lambda p: -p.y  # noqa: E731
        result = climb(downhill, Point2D(1.0, 1.0),
                       initial_step_m=0.1, min_step_m=0.01,
                       max_evaluations=3)
        assert result.position == Point2D(1.0, 1.0)
        assert result.iterations == 3

    @CLIMBERS
    def test_budget_final_evaluation_still_moves(self, climb, refine):
        # The improving -y neighbour is evaluated exactly on the budget
        # boundary (5th evaluation): the move is taken, then the climb ends.
        downhill = lambda p: -p.y  # noqa: E731
        result = climb(downhill, Point2D(1.0, 1.0),
                       initial_step_m=0.1, min_step_m=0.01,
                       max_evaluations=5)
        assert result.position == Point2D(1.0, 1.0 - 0.1)
        assert result.iterations == 5

    @pytest.mark.parametrize("max_evaluations", [1, 2, 3, 4, 5, 6, 17, 40])
    def test_vectorized_matches_serial_at_every_budget(self, max_evaluations):
        downhill = lambda p: -p.y  # noqa: E731
        seeds = [(Point2D(1.0, 1.0), 0.0)]
        serial = _oracle.hill_climb(downhill, Point2D(1.0, 1.0),
                                    initial_step_m=0.1, min_step_m=0.01,
                                    max_evaluations=max_evaluations)
        [vectorized] = refine_many(_batch_adapter([downhill]), [seeds],
                                   initial_step_m=0.1, min_step_m=0.01,
                                   max_evaluations=max_evaluations)
        _assert_same(vectorized, serial)


class TestTieBreaking:
    def test_first_improving_neighbour_wins_not_the_best(self):
        # +x improves by a little, -y by a lot; the serial scan takes +x
        # (first strict improvement) and the vectorized replay must too.
        biased = lambda p: p.x + (10.0 if p.y < 0.95 else 0.0)  # noqa: E731
        serial = _oracle.hill_climb(biased, Point2D(1.0, 1.0),
                                    initial_step_m=0.1, min_step_m=0.01,
                                    max_evaluations=2)
        assert serial.position == Point2D(1.1, 1.0)
        [vectorized] = refine_many(_batch_adapter([biased]),
                                   [[(Point2D(1.0, 1.0), 0.0)]],
                                   initial_step_m=0.1, min_step_m=0.01,
                                   max_evaluations=2)
        _assert_same(vectorized, serial)

    def test_refine_from_seeds_first_seed_wins_ties(self):
        flat = lambda p: 1.0  # noqa: E731
        seeds = [(Point2D(0.0, 0.0), 1.0), (Point2D(5.0, 5.0), 1.0)]
        serial = _oracle.refine_from_seeds(flat, seeds, initial_step_m=0.05,
                                           min_step_m=0.005)
        assert serial.position == Point2D(0.0, 0.0)
        [vectorized] = refine_many(_batch_adapter([flat]), [seeds],
                                   initial_step_m=0.05, min_step_m=0.005)
        _assert_same(vectorized, serial)


class TestRandomizedEquality:
    def test_many_units_many_seeds_bitwise_equal(self):
        rng = np.random.default_rng(42)
        functions = []
        seeds_by_unit = []
        for _ in range(7):
            centres = rng.uniform(0.0, 10.0, size=(3, 2))
            weights = rng.uniform(0.5, 2.0, size=3)
            widths = rng.uniform(0.5, 3.0, size=3)

            def objective(p, centres=centres, weights=weights, widths=widths):
                dx = centres[:, 0] - p.x
                dy = centres[:, 1] - p.y
                return float(np.sum(
                    weights * np.exp(-(dx * dx + dy * dy) / widths)))

            functions.append(objective)
            seeds_by_unit.append([
                (Point2D(rng.uniform(0, 10), rng.uniform(0, 10)),
                 rng.uniform())
                for _ in range(int(rng.integers(1, 4)))])
        vectorized = refine_many(_batch_adapter(functions), seeds_by_unit,
                                 initial_step_m=0.25, min_step_m=0.01)
        for function, seeds, result in zip(functions, seeds_by_unit,
                                           vectorized, strict=True):
            serial = _oracle.refine_from_seeds(function, seeds,
                                               initial_step_m=0.25,
                                               min_step_m=0.01)
            _assert_same(result, serial)


def _quantized_objective(rng, levels, bounds):
    """Bumps rounded down to ``1 / levels`` steps: plateaus and exact ties.

    Rated 0.0 outside ``bounds``, like the Section 2.5 objective.
    """
    xmin, ymin, xmax, ymax = bounds
    centres = rng.uniform(xmin, xmax, size=(2, 2))
    widths = rng.uniform(0.5, 4.0, size=2)

    def objective(p):
        if not (xmin <= p.x <= xmax and ymin <= p.y <= ymax):
            return 0.0
        dx = centres[:, 0] - p.x
        dy = centres[:, 1] - p.y
        raw = float(np.sum(np.exp(-(dx * dx + dy * dy) / widths)))
        return float(np.floor(raw * levels) / levels)

    return objective


def _oracle_refine(function, seeds, initial_step_m, min_step_m,
                   max_evaluations):
    """The oracle's refine_from_seeds, with an evaluation budget."""
    results = [_oracle.hill_climb(function, position, initial_step_m,
                                  min_step_m, max_evaluations)
               for position, _ in seeds]
    return max(results, key=lambda result: result.value)


class TestOracleProperty:
    BOUNDS = (0.0, 0.0, 10.0, 10.0)

    @settings(max_examples=60, deadline=None)
    @given(rng_seed=st.integers(0, 2**32 - 1),
           num_units=st.integers(1, 4),
           levels=st.sampled_from([1, 2, 4, 16, 1024]),
           max_evaluations=st.integers(1, 40),
           initial_step_m=st.floats(0.01, 2.0),
           step_ratio=st.floats(0.01, 1.0))
    def test_refine_many_equals_oracle_climber(self, rng_seed, num_units,
                                               levels, max_evaluations,
                                               initial_step_m, step_ratio):
        rng = np.random.default_rng(rng_seed)
        min_step_m = initial_step_m * step_ratio
        functions = [_quantized_objective(rng, levels, self.BOUNDS)
                     for _ in range(num_units)]
        # Seeds on a half-metre lattice reaching 2 m past the bounds: some
        # start outside, and repeated seeds tie exactly.
        seeds_by_unit = [
            [(Point2D(*(0.5 * rng.integers(-4, 25, size=2))), 0.0)
             for _ in range(int(rng.integers(1, 5)))]
            for _ in range(num_units)]
        vectorized = refine_many(_batch_adapter(functions), seeds_by_unit,
                                 initial_step_m=initial_step_m,
                                 min_step_m=min_step_m,
                                 max_evaluations=max_evaluations)
        for function, seeds, result in zip(functions, seeds_by_unit,
                                           vectorized, strict=True):
            _assert_same(result, _oracle_refine(
                function, seeds, initial_step_m, min_step_m,
                max_evaluations))


class TestBatchOfOne:
    """refine_many with one unit is the serial oracle climb."""

    def test_one_unit_equals_oracle(self):
        rng = np.random.default_rng(3)
        objective = _quantized_objective(rng, 1024, (0.0, 0.0, 10.0, 10.0))
        seeds = [(Point2D(2.0, 3.0), 0.0), (Point2D(7.5, 1.0), 0.0)]
        for budget in (1, 3, 400):
            _assert_same(
                _climb(objective, seeds[0][0], 0.4, 0.01, budget),
                _oracle.hill_climb(objective, seeds[0][0], 0.4, 0.01, budget))
        _assert_same(_refine(objective, seeds, 0.4, 0.01),
                     _oracle.refine_from_seeds(objective, seeds, 0.4, 0.01))


class TestValidation:
    def test_rejects_bad_steps_and_empty_seeds(self):
        flat = lambda p: 1.0  # noqa: E731
        evaluate = _batch_adapter([flat])
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[(Point2D(0, 0), 1.0)]],
                        initial_step_m=0.0)
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[(Point2D(0, 0), 1.0)]],
                        initial_step_m=0.01, min_step_m=0.1)
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[]])
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[(Point2D(0, 0), 1.0)]],
                        max_evaluations=0)

    def test_rejects_misshapen_evaluator_output(self):
        bad = lambda units, xs, ys: np.zeros(xs.shape[0] + 1)  # noqa: E731
        with pytest.raises(EstimationError, match="shape"):
            refine_many(bad, [[(Point2D(0, 0), 1.0)]])


#: AP placements (position, orientation) of the synthetic clients.
PLACEMENTS = [(Point2D(0.5, 0.5), 0.0), (Point2D(19.5, 0.5), 90.0),
              (Point2D(10.0, 11.5), 33.0), (Point2D(0.5, 11.5), 180.0)]


def _synthetic_clients(count, ragged=False, seed=7, positions=(),
                       mixed_grids=False):
    """Per-client spectra over a few AP placements (Gaussian lobe + noise).

    Clients stand at ``positions`` first, then at random spots.  With
    ``mixed_grids`` a client's spectra alternate between 1 and 2 degree
    angle grids, so both grids appear in every slot of the batch.
    """
    rng = np.random.default_rng(seed)
    clients = {}
    for index in range(count):
        position = positions[index] if index < len(positions) \
            else Point2D(rng.uniform(1, 19), rng.uniform(1, 11))
        sites = PLACEMENTS if not ragged else PLACEMENTS[:2 + (index % 3)]
        spectra = []
        for slot, (ap_position, orientation_deg) in enumerate(sites):
            angles = default_angle_grid(
                2.0 if mixed_grids and (index + slot) % 2 else 1.0)
            bearing = bearing_deg(ap_position, position)
            local = (angles - (bearing - orientation_deg)
                     + 180.0) % 360.0 - 180.0
            power = np.exp(-0.5 * (local / 10.0) ** 2) \
                + 0.05 * rng.random(angles.shape[0])
            spectra.append(AoASpectrum(angles, power, ap_position=ap_position,
                                       ap_orientation_deg=orientation_deg))
        if ragged and index % 2:
            spectra = spectra[::-1]
        clients[f"c{index}"] = spectra
    return clients


class TestBatchLocalizerEquality:
    """End to end: BatchLocalizer matches the serial Section 2.5 reference."""

    BOUNDS = (0.0, 0.0, 20.0, 12.0)

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("floor", [0.0, 0.05])
    def test_vectorized_refinement_is_bit_identical(self, ragged, floor):
        clients = _synthetic_clients(10, ragged=ragged)
        config = LocalizerConfig(grid_resolution_m=0.5, spectrum_floor=floor)
        estimates = BatchLocalizer(self.BOUNDS, config).estimate_batch(clients)
        references = reference_refinement(self.BOUNDS, config, clients)
        for key, spectra in clients.items():
            fast, reference = estimates[key], references[key]
            assert fast.position.x == reference.position.x
            assert fast.position.y == reference.position.y
            assert fast.likelihood == reference.value
            assert fast.num_aps == len(spectra)

    def test_vectorized_default_matches_single_client_estimate(self):
        clients = _synthetic_clients(5)
        config = LocalizerConfig(grid_resolution_m=0.5)
        localizer = BatchLocalizer(self.BOUNDS, config)
        batched = localizer.estimate_batch(clients)
        for key, spectra in clients.items():
            single = localizer.estimate_batch({key: spectra})[key]
            assert batched[key].position == single.position
            assert batched[key].likelihood == single.likelihood

    @pytest.mark.parametrize("floor", [0.0, 0.05])
    def test_mixed_grids_ragged_and_collocated_probes(self, floor,
                                                      monkeypatch):
        # Clients a quarter or half metre from an AP: their climbers probe
        # the AP's own position, which Equation 8 rates zero.
        near_aps = [Point2D(0.75, 0.5), Point2D(1.0, 0.5),
                    Point2D(19.25, 0.5), Point2D(0.5, 11.0)]
        clients = _synthetic_clients(10, ragged=True, positions=near_aps,
                                     mixed_grids=True)
        probes = []

        def recording(evaluate, *args, **kwargs):
            def recorded(units, xs, ys):
                probes.extend(zip(xs.tolist(), ys.tolist(), strict=True))
                return evaluate(units, xs, ys)

            return refine_many(recorded, *args, **kwargs)

        monkeypatch.setattr(batch_module, "refine_many", recording)
        config = LocalizerConfig(grid_resolution_m=0.5, spectrum_floor=floor)
        estimates = BatchLocalizer(self.BOUNDS, config).estimate_batch(clients)
        references = reference_refinement(self.BOUNDS, config, clients)
        for key in clients:
            assert estimates[key].position == references[key].position
            assert estimates[key].likelihood == references[key].value
        assert set(probes) & {(ap.x, ap.y) for ap, _ in PLACEMENTS}
