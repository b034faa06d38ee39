"""AoA spectra synthesis: combining per-AP spectra into a location likelihood.

Section 2.5, Equation 8: given processed spectra ``P_1 .. P_N`` from N APs,
the likelihood of the client being at position x is

    L(x) = prod_i  P_i(theta_i(x))

where ``theta_i(x)`` is the bearing of x as seen from AP i.  ArrayTrack
evaluates L on a 10 cm grid (the "heatmaps" of Figure 14) and then refines
the best grid cells by hill climbing (:mod:`repro.core.optimizer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.constants import DEFAULT_GRID_RESOLUTION_M
from repro.errors import EstimationError
from repro.geometry.vector import Point2D
from repro.core.cache import (
    BearingGrid,
    BearingGridCache,
    default_bearing_cache,
    grid_axes,
)
from repro.core.spectrum import AoASpectrum

__all__ = [
    "LikelihoodMap",
    "greedy_seeds",
    "likelihood_at",
    "spectrum_grid_powers",
    "synthesize_likelihood",
]


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

    def top_positions(self, count: int) -> list[tuple[Point2D, float]]:
        """Return the ``count`` best grid points and their likelihoods.

        The positions are chosen greedily with a minimum mutual separation of
        three grid cells so that the hill-climbing seeds (Section 2.5 uses
        the three highest positions) do not all sit on the same lobe; exact
        ties go to the lowest flat index, like :meth:`peak_position`.

        No full sort is needed: the greedy rule only reads cells at or above
        its last seed's value, so it runs over the cells at or above the
        ``budget``-th largest value, and the budget grows only when those
        cells yield fewer than ``count`` seeds.
        """
        if count < 1:
            raise EstimationError("count must be >= 1")
        flat = self.values.ravel()
        num_cells = flat.shape[0]
        budget = 16 * count
        while True:
            if budget >= num_cells:
                candidates = np.arange(num_cells)
            else:
                threshold = np.partition(flat, num_cells - budget)[
                    num_cells - budget]
                candidates = np.flatnonzero(flat >= threshold)
            seeds = greedy_seeds(np.zeros_like(candidates), candidates,
                                 flat[candidates], 1, self.x_coords,
                                 self.y_coords, count)[0]
            seeds = seeds[seeds >= 0]
            if seeds.shape[0] == count or candidates.shape[0] == num_cells:
                break
            budget *= 4
        num_x = self.x_coords.shape[0]
        return [(Point2D(float(self.x_coords[cell % num_x]),
                         float(self.y_coords[cell // num_x])),
                 float(flat[cell]))
                for cell in candidates[seeds].tolist()]

    def normalized(self) -> "LikelihoodMap":
        """Return a copy scaled so the maximum value is 1."""
        peak = float(np.max(self.values))
        if peak <= 0:
            raise EstimationError("cannot normalize an all-zero likelihood map")
        return LikelihoodMap(self.x_coords, self.y_coords, self.values / peak)


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


def likelihood_at(spectra: Sequence[AoASpectrum], position: Point2D,
                  floor: float = 0.0) -> float:
    """Return ``L(position)`` (Equation 8) for a set of per-AP spectra.

    Parameters
    ----------
    floor:
        Minimum value (relative to each spectrum's maximum) a spectrum
        contributes to the product.  A small positive floor keeps a single
        AP whose spectrum happens to be blind towards the true location
        from vetoing it outright; 0 reproduces the plain product.
    """
    if not spectra:
        raise EstimationError("need at least one AoA spectrum")
    likelihood = 1.0
    for spectrum in spectra:
        value = spectrum.power_towards(position)
        if floor > 0:
            value = max(value, floor * spectrum.max_power)
        likelihood *= value
    return float(likelihood)


def spectrum_grid_powers(spectrum: AoASpectrum,
                         bearing_grid: BearingGrid,
                         floor: float = 0.0) -> np.ndarray:
    """Evaluate one spectrum's ``P_i(theta_i(x))`` over a cached bearing grid.

    Returns the flat ``(num_cells,)`` power plane this spectrum contributes
    to the Equation 8 product.  Both the single-client synthesis below and
    the stacked evaluation in :mod:`repro.core.batch` reduce to this same
    arithmetic, which is what guarantees batched and sequential fixes agree
    bit for bit.
    """
    lower, upper, fraction = spectrum.interpolation_table(
        bearing_grid.bearings_deg - spectrum.ap_orientation_deg)
    power = (1.0 - fraction) * spectrum.power[lower] \
        + fraction * spectrum.power[upper]
    # The AP's own cell has no bearing; power_towards rates it zero.
    power[bearing_grid.collocated] = 0.0
    if floor > 0:
        power = np.maximum(power, floor * spectrum.max_power)
    return power


def synthesize_likelihood(spectra: Sequence[AoASpectrum],
                          bounds: tuple[float, float, float, float],
                          resolution_m: float = DEFAULT_GRID_RESOLUTION_M,
                          normalize_spectra: bool = True,
                          floor: float = 0.0,
                          bearing_cache: BearingGridCache | None = None
                          ) -> LikelihoodMap:
    """Evaluate Equation 8 on a regular grid covering ``bounds``.

    Parameters
    ----------
    spectra:
        Processed AoA spectra, one (or more) per AP; each must carry its
        AP's position and orientation.
    bounds:
        ``(xmin, ymin, xmax, ymax)`` of the search area, in metres.
    resolution_m:
        Grid spacing; the paper uses a 10 cm grid.
    normalize_spectra:
        Normalize each spectrum to unit maximum before multiplying, so no
        single AP dominates the product through its absolute scale.
    floor:
        Minimum relative value each spectrum contributes (see
        :func:`likelihood_at`).
    bearing_cache:
        Cache of per-AP bearing tables; the shared default cache is used
        when omitted, so repeated fixes against a static deployment reuse
        the same ``arctan2`` sweep per AP.
    """
    if not spectra:
        raise EstimationError("need at least one AoA spectrum")
    cache = bearing_cache if bearing_cache is not None else default_bearing_cache()
    x_coords, y_coords = grid_axes(bounds, resolution_m)
    shape = (y_coords.shape[0], x_coords.shape[0])
    values: np.ndarray | None = None
    for spectrum in spectra:
        if spectrum.ap_position is None:
            raise EstimationError(
                "every spectrum must carry its AP position for synthesis")
        usable = spectrum.normalized() if normalize_spectra else spectrum
        bearing_grid = cache.get(bounds, resolution_m, usable.ap_position)
        power = spectrum_grid_powers(usable, bearing_grid, floor=floor)
        values = power if values is None else values * power
    assert values is not None
    return LikelihoodMap(x_coords, y_coords, values.reshape(shape))
