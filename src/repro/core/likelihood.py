"""Equation 8's grid map and the Section 2.5 seed rule.

Section 2.5, Equation 8: given processed spectra ``P_1 .. P_N`` from N APs,
the likelihood of the client being at position x is

    L(x) = prod_i  P_i(theta_i(x))

where ``theta_i(x)`` is the bearing of x as seen from AP i.  ArrayTrack
evaluates L on a 10 cm grid (the "heatmaps" of Figure 14) and then refines
the best grid cells by hill climbing (:mod:`repro.core.optimizer`).  The
product itself has one implementation, the stacked objective of
:mod:`repro.core.batch`; this module holds the grid map it fills
(:meth:`~repro.core.batch.BatchLocalizer.heatmaps`) and the greedy seed
rule (:func:`greedy_seeds`) that picks the climb's starting cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.geometry.vector import Point2D

__all__ = ["LikelihoodMap", "greedy_seeds"]


@dataclass
class LikelihoodMap:
    """The location-likelihood heatmap of Equation 8 evaluated on a grid.

    Attributes
    ----------
    x_coords, y_coords:
        Grid coordinates (metres) along each axis.
    values:
        ``(len(y_coords), len(x_coords))`` likelihood values (row = y).
    """

    x_coords: np.ndarray
    y_coords: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.x_coords = np.asarray(self.x_coords, dtype=float)
        self.y_coords = np.asarray(self.y_coords, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.y_coords.shape[0], self.x_coords.shape[0]):
            raise EstimationError(
                f"heatmap shape {self.values.shape} does not match grid "
                f"({self.y_coords.shape[0]}, {self.x_coords.shape[0]})")

    @property
    def resolution_m(self) -> float:
        """Grid spacing in metres (assumed equal along x and y).

        See :func:`_grid_spacing`; a fully degenerate 1x1 map reports 0.0.
        """
        return _grid_spacing(self.x_coords, self.y_coords)

    def peak_position(self) -> Point2D:
        """Return the grid point with the highest likelihood."""
        flat_index = int(np.argmax(self.values))
        row, column = np.unravel_index(flat_index, self.values.shape)
        return Point2D(float(self.x_coords[column]), float(self.y_coords[row]))


def _grid_spacing(x_coords: np.ndarray, y_coords: np.ndarray) -> float:
    """Grid spacing in metres of a search grid (assumed equal along x and y).

    Tight search bounds can collapse an axis to a single cell (the seed
    code then died with a bare ``IndexError`` on ``x_coords[1]``, taking
    seeding down with it).  A one-cell axis carries no spacing information,
    so the other axis answers for it; a fully degenerate 1x1 grid reports
    0.0, which :func:`greedy_seeds` handles naturally (its single cell is
    always returned, no separation applies).
    """
    if x_coords.shape[0] >= 2:
        return float(x_coords[1] - x_coords[0])
    if y_coords.shape[0] >= 2:
        return float(y_coords[1] - y_coords[0])
    return 0.0


def greedy_seeds(owners: np.ndarray, cells: np.ndarray, values: np.ndarray,
                 num_owners: int, x_coords: np.ndarray, y_coords: np.ndarray,
                 count: int) -> np.ndarray:
    """Pick Section 2.5 hill-climb seeds for many owners in one pass.

    ``owners``, ``cells`` and ``values`` list candidate grid cells: the
    owner (client) index, sorted so each owner's candidates are contiguous,
    the flat cell index on the ``(y_coords, x_coords)`` grid (distinct per
    owner) and the cell's likelihood.  Each owner's candidates are taken in
    ``(-value, cell)`` order, so exact ties go to the lowest flat index, and
    greedily: a candidate becomes a seed unless it lies within three grid
    cells of one of the owner's earlier seeds.

    Returns an ``(num_owners, count)`` array of positions into the
    candidate arrays, best seed first, padded with -1 where an owner has
    fewer than ``count`` seeds.  No sort is needed: each round takes every
    owner's best open candidate with two segment reductions, then closes
    the candidates near the new seeds.
    """
    min_separation = 3.0 * _grid_spacing(x_coords, y_coords)
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    sizes = np.diff(starts, append=owners.shape[0])
    num_x = x_coords.shape[0]
    xs = x_coords[cells % num_x]
    ys = y_coords[cells // num_x]
    # Closed candidates read -inf, below every likelihood.
    open_values = values.copy()
    beyond = cells.max(initial=0) + 1
    seeds = np.full((num_owners, count), -1)
    for rank in range(count):
        best = np.repeat(np.maximum.reduceat(open_values, starts), sizes)
        tied = (open_values == best) & (open_values > -np.inf)
        first = np.repeat(np.minimum.reduceat(np.where(tied, cells, beyond),
                                              starts), sizes)
        chosen = np.flatnonzero(tied & (cells == first))
        if chosen.shape[0] == 0:
            break
        seeds[owners[chosen], rank] = chosen
        # Close the new seeds and every open candidate near one of them.
        anchor = np.full(num_owners, -1)
        anchor[owners[chosen]] = chosen
        mine = anchor[owners]
        near = np.hypot(xs - xs[mine], ys - ys[mine]) < min_separation
        open_values[chosen] = -np.inf
        open_values[(mine >= 0) & near] = -np.inf
    return seeds
