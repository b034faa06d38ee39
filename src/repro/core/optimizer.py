"""Location refinement: grid search seeding plus hill climbing (Section 2.5).

"We search for the most likely location of the client by forming a 10 cm by
10 cm grid, and evaluating L(x) at each point in the grid.  We then use hill
climbing on the three positions with highest L(x) in the grid ... to refine
our location estimate."

The hill climber below is a derivative-free pattern search: from each seed it
scans the likelihood at four compass neighbours, moves to the first
improvement, and halves the step when no neighbour improves, until the step
falls below a termination threshold.  This matches the paper's intent
(gradient ascent on a smooth likelihood surface) while being robust to the
plateaus that a coarse angle grid can create.

:func:`refine_many` is the one climb body: it runs every climber of a batch
as rows of NumPy arrays.  The serial per-candidate climber it replaces
lives on as the reference in ``tests/core/_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.geometry.vector import Point2D

__all__ = ["HillClimbResult", "refine_many"]

#: Batched likelihood evaluator used by :func:`refine_many`.  Called with
#: three equal-length arrays -- the unit (client) index of each candidate
#: point plus its x/y coordinates -- and returns the likelihood of every
#: candidate, evaluated against its own unit's objective.
BatchLikelihoodFunction = Callable[
    [np.ndarray, np.ndarray, np.ndarray], np.ndarray]


#: Compass-neighbour probe order of the pattern search, as ``(4, 2)`` unit
#: steps: +x, -x, +y, -y.  The first strict improvement in this order wins.
_NEIGHBOUR_DIRECTIONS = np.array(
    [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])


@dataclass(frozen=True)
class HillClimbResult:
    """Outcome of one hill-climbing run.

    Attributes
    ----------
    position:
        The refined position.
    value:
        Likelihood at the refined position.
    iterations:
        Number of candidate evaluations performed.
    """

    position: Point2D
    value: float
    iterations: int


def refine_many(evaluate: BatchLikelihoodFunction,
                seeds_by_unit: Sequence[Sequence[tuple[Point2D, float]]],
                initial_step_m: float = 0.05,
                min_step_m: float = 0.005,
                max_evaluations: int = 400) -> list[HillClimbResult]:
    """Hill climb every seed of every unit, batching the evaluations.

    Each (unit, seed) pair is one climber, a row of the climb's state
    arrays (position, value, evaluations, step).  Round zero scores every
    seed; each later round stacks the four compass neighbours of every
    still-active climber and hands them to ``evaluate`` as one request, so
    a batched caller (:class:`repro.core.batch.BatchLocalizer`) scores a
    round's candidates of *all* clients in one pass across all slots.

    The result is the serial pattern search of every climber: neighbours
    are scanned in probe order (+x, -x, +y, -y) and the first strict
    improvement moves the climber.  The later neighbours of that round are
    evaluated but discarded and not charged to the budget, and the budget
    cuts a scan mid-neighbour.  A round without improvement halves the
    step.  A climber stops once its step falls below ``min_step_m`` or it
    has spent ``max_evaluations``.  Per unit the best seed wins, ties going
    to the first seed.

    Parameters
    ----------
    evaluate:
        Batched likelihood: ``evaluate(units, xs, ys)`` returns one value
        per candidate, where ``units[i]`` is the index (into
        ``seeds_by_unit``) of the unit owning candidate ``i``.
    seeds_by_unit:
        Per unit, its ``(position, grid_likelihood)`` seed pairs.
    initial_step_m, min_step_m, max_evaluations:
        First step, termination step and evaluation cap, applied to every
        climber independently.

    Returns
    -------
    list
        One :class:`HillClimbResult` per unit, in ``seeds_by_unit`` order;
        ``iterations`` counts the winning climber's evaluations.
    """
    if initial_step_m <= 0 or min_step_m <= 0:
        raise EstimationError("step sizes must be positive")
    if min_step_m > initial_step_m:
        raise EstimationError("min_step_m must not exceed initial_step_m")
    if max_evaluations < 1:
        raise EstimationError("max_evaluations must be >= 1")
    owners: list[int] = []
    starts: list[tuple[float, float]] = []
    for unit, seeds in enumerate(seeds_by_unit):
        positions = [(float(position.x), float(position.y))
                     for position, _ in seeds]
        if not positions:
            raise EstimationError("need at least one seed position")
        owners.extend([unit] * len(positions))
        starts.extend(positions)
    if not owners:
        return []
    # One row per climber, grouped by unit in seed order; the positions
    # are Python floats, so the state arrays are float64.
    unit = np.array(owners)
    x, y = np.array(starts).T.copy()

    def _evaluate(units: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray) -> np.ndarray:
        values = np.asarray(evaluate(units, xs, ys), dtype=float)
        if values.shape != xs.shape:
            raise EstimationError(
                f"batched likelihood returned shape {values.shape} for "
                f"{xs.shape[0]} candidates")
        return values

    # A copy: the climb writes into it, and ``evaluate`` may hand back an
    # array it still owns.
    value = _evaluate(unit, x, y).copy()
    evaluations = np.ones(unit.shape[0], dtype=int)
    step = np.full(unit.shape[0], float(initial_step_m))
    num_directions = _NEIGHBOUR_DIRECTIONS.shape[0]
    probe = np.arange(num_directions)
    active = np.flatnonzero(evaluations < max_evaluations)
    while active.shape[0]:
        offsets = _NEIGHBOUR_DIRECTIONS[None] * step[active, None, None]
        candidate_x = x[active, None] + offsets[..., 0]
        candidate_y = y[active, None] + offsets[..., 1]
        values = _evaluate(np.repeat(unit[active], num_directions),
                           candidate_x.ravel(), candidate_y.ravel()
                           ).reshape(candidate_x.shape)
        # The scan stops at the first strict improvement or when the
        # budget runs out, whichever comes first.
        considered = np.minimum(num_directions,
                                max_evaluations - evaluations[active])
        improved = (values > value[active, None]) \
            & (probe < considered[:, None])
        moved = np.any(improved, axis=1)
        first = np.argmax(improved, axis=1)
        evaluations[active] += np.where(moved, first + 1, considered)
        rows = np.flatnonzero(moved)
        movers = active[rows]
        x[movers] = candidate_x[rows, first[rows]]
        y[movers] = candidate_y[rows, first[rows]]
        value[movers] = values[rows, first[rows]]
        step[active[~moved]] /= 2.0
        active = active[(step[active] >= min_step_m)
                        & (evaluations[active] < max_evaluations)]

    # Per unit, a later seed replaces the best so far only if strictly
    # better, exactly like a sequential first-wins scan.
    counts = np.bincount(unit, minlength=len(seeds_by_unit))
    firsts = np.cumsum(counts) - counts
    best = firsts.copy()
    for rank in range(1, int(np.max(counts))):
        challengers = firsts + rank
        better = np.flatnonzero(counts > rank)
        better = better[value[challengers[better]] > value[best[better]]]
        best[better] = challengers[better]
    return [HillClimbResult(position=Point2D(bx, by), value=bv,
                            iterations=bn)
            for bx, by, bv, bn in zip(x[best].tolist(), y[best].tolist(),
                                      value[best].tolist(),
                                      evaluations[best].tolist(),
                                      strict=True)]
