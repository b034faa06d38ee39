"""Batched multi-client location synthesis (Equation 8 across many clients).

Section 2.5 needs only the few best grid cells of each client, which then
seed a hill climb.  :class:`BatchLocalizer` therefore never folds the whole
grid: a fix does work in proportion to the cells that can still hold a seed.
Everything except the final product depends only on the *deployment* (AP
positions/orientations, angle grid, search grid), so that part is computed
once and cached.  One batch runs these stages:

1. spectra are grouped by (slot, AP placement) and stacked, normalized, in
   :class:`_StackedObjective`; each placement's circular-interpolation table
   comes from the shared :class:`~repro.core.cache.BearingGridCache` and is
   cached with the circular span of spectrum indices each fixed 8x8-cell
   grid block reads;
2. one ``maximum.reduceat`` over every stacked row (doubled for the circle)
   turns those spans into per-block maxima; floored like the fold, padded
   for rounding and multiplied in slot order, they bound every client's
   Equation 8 product on every block;
3. each client's best blocks by bound are folded exactly in one stacked
   pass per (slot, placement), and the seeds are picked by
   :func:`~repro.core.likelihood.greedy_seeds`.  A client stops once its
   best unevaluated block's bound is strictly below its last seed's value;
   otherwise its block budget doubles.  Grid-only fixes take the same path
   with one seed, so every seed and grid fix is bit-for-bit the one a full
   fold would pick;
4. hill-climbing refinement (Section 2.5) is driven by the vectorized
   refiner (:func:`repro.core.optimizer.refine_many`), which keeps every
   climber in NumPy arrays: each round stacks the compass-neighbour
   candidates of every active climber of every client and scores them in
   one pass across all slots, with the exact tie-breaking and evaluation
   budget of a serial per-candidate climb.

:class:`_StackedObjective` is the only Equation 8 in ``src/``: grid seeds,
grid-only fixes, refinement candidates and the full per-client planes of
:meth:`BatchLocalizer.heatmaps` (Figure 14) all read it.  The serial
per-point and full-grid evaluators it must match bit for bit live in
``tests/core/_oracle.py``.  A single-client fix is this engine with a batch
of one, so there is exactly one synthesis code path to test and optimize.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.geometry.vector import Point2D, bearings_deg
from repro.core.cache import (
    BearingGridCache,
    default_bearing_cache,
    grid_axes,
)
from repro.core.likelihood import LikelihoodMap, greedy_seeds
from repro.core.localizer import (
    LocalizerConfig,
    LocationEstimate,
)
from repro.core.optimizer import refine_many
from repro.core.spectrum import AoASpectrum, circular_interpolation_table

__all__ = ["BatchLocalizer", "count_distinct_sources"]

#: Side, in grid cells, of the square blocks the Equation 8 bound covers.
_BLOCK_CELLS = 8


def count_distinct_sources(spectra: Sequence[AoASpectrum]) -> int:
    """Return the number of distinct APs contributing to ``spectra``.

    Spectra carrying an ``ap_id`` are counted once per distinct id; spectra
    without one (synthetic test spectra, mostly) are each counted as their
    own source.  The seed expression ``{ap ids} or {object ids}`` collapsed
    to *only* the named ids as soon as a single spectrum carried one,
    undercounting mixed batches.
    """
    named = {spectrum.ap_id for spectrum in spectra if spectrum.ap_id}
    anonymous = sum(1 for spectrum in spectra if not spectrum.ap_id)
    return len(named) + anonymous


def _placement_key(spectrum: AoASpectrum) -> tuple:
    """Key identifying one AP placement + angle grid (shared fold/refine)."""
    return (
        float(spectrum.ap_position.x),
        float(spectrum.ap_position.y),
        float(spectrum.ap_orientation_deg),
        int(spectrum.angles_deg.shape[0]),
        float(spectrum.resolution_deg),
    )


class _GridLayout:
    """The search grid cut into fixed square blocks, listed block by block."""

    def __init__(self, bounds: tuple[float, float, float, float],
                 resolution_m: float) -> None:
        self.x_coords, self.y_coords = grid_axes(bounds, resolution_m)
        num_x = self.x_coords.shape[0]
        rows, columns = np.divmod(
            np.arange(self.y_coords.shape[0] * num_x), num_x)
        blocks_x = -(-num_x // _BLOCK_CELLS)
        #: Block index of every flat cell.
        self.block_of = (rows // _BLOCK_CELLS) * blocks_x \
            + columns // _BLOCK_CELLS
        self.num_blocks = int(self.block_of[-1]) + 1
        # Cells sorted by block (flat order within a block); block ``b``
        # owns ``block_cells[offsets[b]:offsets[b + 1]]``.
        self._block_cells = np.argsort(self.block_of, kind="stable")
        self._offsets = np.zeros(self.num_blocks + 1, dtype=int)
        self._offsets[1:] = np.cumsum(np.bincount(self.block_of))

    def cells_of(self, owners: np.ndarray, blocks: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Expand ``(owner, block)`` pairs into ``(owner, cell)`` pairs."""
        sizes = self._offsets[blocks + 1] - self._offsets[blocks]
        shifts = np.repeat(self._offsets[blocks] - (np.cumsum(sizes) - sizes),
                           sizes)
        cells = self._block_cells[shifts + np.arange(shifts.shape[0])]
        return np.repeat(owners, sizes), cells


class _PlacementTable:
    """Geometry-only Equation 8 tables of one AP placement on the grid.

    ``lower``/``upper``/``fraction`` interpolate the spectrum at every
    cell's bearing; ``collocated`` flags the cells at the AP itself.  The
    span edges locate, on the spectrum row doubled for the circle, the
    circular span of spectrum indices each block's cells read.
    """

    __slots__ = ("lower", "upper", "fraction", "collocated", "span_edges",
                 "span_blocks")

    def __init__(self, exemplar: AoASpectrum, layout: _GridLayout,
                 bearing_cache: BearingGridCache,
                 bounds: tuple[float, float, float, float],
                 resolution_m: float) -> None:
        bearing_grid = bearing_cache.get(bounds, resolution_m,
                                         exemplar.ap_position)
        self.lower, self.upper, self.fraction = exemplar.interpolation_table(
            bearing_grid.bearings_deg - exemplar.ap_orientation_deg)
        self.collocated = np.zeros(self.lower.shape[0], dtype=bool)
        self.collocated[bearing_grid.collocated] = True
        start, length = _block_spans(layout, self.lower, self.upper,
                                     int(exemplar.angles_deg.shape[0]))
        # Spans as ``[start, stop)`` edges on the doubled row, sorted by
        # start so the stretches ``reduceat`` reduces between spans stay
        # short; ``span_blocks`` maps the sorted spans back to blocks.
        by_start = np.argsort(start, kind="stable")
        self.span_edges = np.stack((start[by_start],
                                    start[by_start] + length[by_start]),
                                   axis=1).ravel()
        self.span_blocks = np.argsort(by_start)


def _block_spans(layout: _GridLayout, lower: np.ndarray, upper: np.ndarray,
                 num_angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortest circular span ``(start, length)`` of indices per block.

    Each block's span is the circle minus the widest gap between the
    spectrum indices its cells' ``lower``/``upper`` entries use.
    """
    used = np.zeros((layout.num_blocks, num_angles), dtype=bool)
    used[layout.block_of, lower] = True
    used[layout.block_of, upper] = True
    blocks, angles = np.nonzero(used)          # by block, then by angle
    first = np.ones(blocks.shape[0], dtype=bool)
    first[1:] = blocks[1:] != blocks[:-1]
    last = np.roll(first, -1)
    following = np.roll(angles, -1)
    following[last] = angles[first] + num_angles
    gaps = following - angles
    # Sorting by (block, -gap) puts each block's widest gap first in its
    # (unchanged) segment; the span starts right after that gap.
    widest = np.lexsort((-gaps, blocks))[np.flatnonzero(first)]
    return following[widest] % num_angles, num_angles - gaps[widest] + 1


class _SlotEntry:
    """One (slot index, AP placement) group of the stacked evaluation.

    Holds the stacked (and normalized) power rows of every client whose
    ``slot``-th spectrum sits at this placement, plus the unit-index ->
    power-row mapping the evaluator gathers through.
    """

    __slots__ = ("ap_x", "ap_y", "orientation_deg", "angles_deg", "table",
                 "powers", "maxima", "membership", "units", "rows")

    def __init__(self, exemplar: AoASpectrum, table: _PlacementTable) -> None:
        self.ap_x = float(exemplar.ap_position.x)
        self.ap_y = float(exemplar.ap_position.y)
        self.orientation_deg = float(exemplar.ap_orientation_deg)
        self.angles_deg = exemplar.angles_deg
        self.table = table
        self.powers: np.ndarray = np.empty(0)       # (jobs, angles), stacked
        self.maxima: np.ndarray = np.empty(0)       # per-row max (floor term)
        #: ``membership[u]`` is True when unit ``u`` has a row here; None
        #: means *every* unit does (the rectangular fast path, where the
        #: evaluator skips the boolean select entirely).
        self.membership: np.ndarray | None = None
        self.units: np.ndarray = np.empty(0, dtype=int)  # row -> unit index
        self.rows: np.ndarray = np.empty(0, dtype=int)   # unit index -> row


class _PointTable:
    """One angle grid's spectra as ``(slots, units)`` arrays.

    Entry ``[slot, unit]`` holds the AP position and orientation of the
    unit's ``slot``-th spectrum, the start of its normalized power row in
    one concatenated flat matrix and its floor term.  A pair whose
    spectrum is on another grid (or that has no ``slot``-th spectrum) is
    flagged in ``absent`` and scores exactly 1.0.
    """

    __slots__ = ("angles_deg", "ap_x", "ap_y", "orientation_deg", "starts",
                 "floors", "absent", "powers")

    def __init__(self, placed: list[tuple[int, _SlotEntry]],
                 num_slots: int, num_units: int, floor: float) -> None:
        shape = (num_slots, num_units)
        self.angles_deg = placed[0][1].angles_deg
        self.ap_x = np.zeros(shape)
        self.ap_y = np.zeros(shape)
        self.orientation_deg = np.zeros(shape)
        self.starts = np.zeros(shape, dtype=int)
        floors = np.zeros(shape)
        present = np.zeros(shape, dtype=bool)
        num_angles = self.angles_deg.shape[0]
        offset = 0
        for slot, entry in placed:
            units = entry.units
            self.ap_x[slot, units] = entry.ap_x
            self.ap_y[slot, units] = entry.ap_y
            self.orientation_deg[slot, units] = entry.orientation_deg
            self.starts[slot, units] = (offset + np.arange(units.shape[0])) \
                * num_angles
            floors[slot, units] = floor * entry.maxima
            present[slot, units] = True
            offset += units.shape[0]
        self.powers = np.concatenate(
            [entry.powers for _, entry in placed]).ravel()
        self.floors = floors if floor > 0 else None
        self.absent = None if np.all(present) else ~present

    def values(self, units: np.ndarray, xs: np.ndarray,
               ys: np.ndarray) -> np.ndarray:
        """``P_i(theta_i(x))`` of every slot at each point, ``(slots, n)``."""
        # ``take`` along the unit axis gathers faster than ``[:, units]``.
        dx = xs - self.ap_x.take(units, axis=1)
        dy = ys - self.ap_y.take(units, axis=1)
        lower, upper, fraction = circular_interpolation_table(
            self.angles_deg,
            bearings_deg(dx, dy) - self.orientation_deg.take(units, axis=1))
        starts = self.starts.take(units, axis=1)
        values = (1.0 - fraction) * self.powers[starts + lower] \
            + fraction * self.powers[starts + upper]
        # The AP's own location is rated zero (the bearing is undefined
        # there); the floor below still applies, as at a grid cell.
        values[np.hypot(dx, dy) < 1e-9] = 0.0
        if self.floors is not None:
            np.maximum(values, self.floors.take(units, axis=1), out=values)
        if self.absent is not None:
            values[self.absent.take(units, axis=1)] = 1.0
        return values


class _StackedObjective:
    """Equation 8 of a client batch, at grid cells and at arbitrary points.

    ``L(x) = prod_i max(P_i(theta_i(x)), floor * max P_i)`` over each
    client's (optionally normalized) spectra, folded in the client's own
    spectrum order; the AP's own location contributes zero before the
    floor, since its bearing is undefined.  This is the only Equation 8 in
    ``src/``: :meth:`fold_cells` serves grid seeding, grid-only fixes and
    full heatmaps, :meth:`block_bounds` bounds it per grid block for the
    prune, and :meth:`evaluate` scores refinement candidates (rating
    points outside the bounds 0.0) for
    :func:`repro.core.optimizer.refine_many`.  Grid cells are folded per
    (slot, AP placement) group from the cached :class:`_PlacementTable`; a
    refinement round's candidates are scored against their own clients'
    spectra in one pass across all slots, through one :class:`_PointTable`
    per angle grid (built on the first :meth:`evaluate` call).

    Both paths perform the same elementwise arithmetic -- the bearing of
    :func:`~repro.geometry.vector.bearings_deg`, the circular interpolation
    of :func:`~repro.core.spectrum.circular_interpolation_table`, the
    collocated zero and the floor max -- folded slot by slot, so a point
    on a grid cell scores exactly what the cell folds.  The serial
    per-point and full-grid references in ``tests/core/_oracle.py`` pin
    both paths bit for bit.
    """

    def __init__(self, spectra: dict[str, list[AoASpectrum]],
                 bounds: tuple[float, float, float, float],
                 config: LocalizerConfig,
                 table_for: Callable[[AoASpectrum], _PlacementTable]) -> None:
        #: The validated batch; unit ``u`` is the client ``keys[u]``.
        self.spectra = spectra
        self.keys = list(spectra)
        self._bounds = bounds
        self._floor = config.spectrum_floor
        self.num_units = len(self.keys)
        # Built on the first evaluate call, so grid-only batches skip them.
        self._point_tables: list[_PointTable] | None = None
        entries: dict[tuple[int, tuple], _SlotEntry] = {}
        jobs: dict[tuple[int, tuple], list[tuple[int, np.ndarray]]] = {}
        max_slots = 0
        for unit, key in enumerate(self.keys):
            max_slots = max(max_slots, len(spectra[key]))
            for slot, spectrum in enumerate(spectra[key]):
                group = (slot, _placement_key(spectrum))
                if group not in entries:
                    entries[group] = _SlotEntry(spectrum, table_for(spectrum))
                    jobs[group] = []
                jobs[group].append((unit, spectrum.power))
        #: Entries per slot index; iterating slots in ascending order folds
        #: every client's product in its own spectrum order.
        self._slots: list[list[_SlotEntry]] = [[] for _ in range(max_slots)]
        for group, entry in entries.items():
            slot = group[0]
            group_jobs = jobs[group]
            stacked = np.stack([power for _, power in group_jobs])
            if config.normalize_spectra:
                maxima = np.max(stacked, axis=1)
                if np.any(maxima <= 0):
                    raise EstimationError(
                        "cannot normalize an all-zero spectrum")
                stacked = stacked / maxima[:, None]
            entry.powers = stacked
            # The floor is relative to each (normalized) spectrum's own
            # maximum, so recompute it on the rows actually evaluated.
            entry.maxima = np.max(stacked, axis=1)
            units = np.array([unit for unit, _ in group_jobs], dtype=int)
            rows = np.zeros(self.num_units, dtype=int)
            rows[units] = np.arange(units.shape[0])
            entry.units = units
            entry.rows = rows
            if units.shape[0] != self.num_units:
                membership = np.zeros(self.num_units, dtype=bool)
                membership[units] = True
                entry.membership = membership
            self._slots[slot].append(entry)

    def evaluate(self, units: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray) -> np.ndarray:
        """Return the refinement objective at every candidate point.

        One pass across all slots: each angle grid's :class:`_PointTable`
        scores every (slot, candidate) pair as one ``(slots, n)`` array,
        and the rows are multiplied in slot order.
        """
        units = np.asarray(units, dtype=int)
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self._point_tables is None:
            self._point_tables = self._build_point_tables()
        factors: np.ndarray | None = None
        for table in self._point_tables:
            values = table.values(units, xs, ys)
            # Every pair is scored by at most one grid; the others give
            # exactly 1.0, so this product leaves the values unchanged.
            factors = values if factors is None else factors * values
        assert factors is not None
        likelihood = factors[0]
        for row in factors[1:]:
            likelihood = likelihood * row
        # Out-of-bounds candidates are rated 0.0 whatever the spectra say
        # (climbers near the boundary probe outside every round); their
        # products above are discarded here.
        xmin, ymin, xmax, ymax = self._bounds
        inside = (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        return np.where(inside, likelihood, 0.0)

    def _build_point_tables(self) -> list[_PointTable]:
        """One :class:`_PointTable` per angle grid of the batch."""
        grids: dict[tuple[int, float], list[tuple[int, _SlotEntry]]] = {}
        for slot, slot_entries in enumerate(self._slots):
            for entry in slot_entries:
                angles = entry.angles_deg
                grid = (int(angles.shape[0]), float(angles[1] - angles[0]))
                grids.setdefault(grid, []).append((slot, entry))
        return [_PointTable(placed, len(self._slots), self.num_units,
                            self._floor)
                for placed in grids.values()]

    def fold_cells(self, units: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Return Equation 8 at flat grid cells, one client per cell."""
        return self._fold(units, cells)

    def block_bounds(self) -> np.ndarray:
        """Return a ``(units, blocks)`` upper bound of Equation 8 per block.

        Each factor is the floored maximum of the row over the block's span,
        multiplied in slot order like the exact fold.  The exact cell value
        can exceed that maximum by a few ulps, because the interpolation
        rounds, so every factor is padded by a relative 1e-12 (plus two
        subnormal ulps for rows with subnormal values).  Rounded products
        are monotone, so the padded product in the same order then bounds
        every cell's product exactly, product rounding included.
        """
        bound: np.ndarray | None = None
        for slot_entries in self._slots:
            for entry in slot_entries:
                factors = self._block_factors(entry)
                if bound is None:
                    bound = np.ones((self.num_units, factors.shape[1]))
                if entry.membership is None:
                    bound *= factors
                else:
                    bound[entry.units] *= factors
        assert bound is not None
        return bound

    def _block_factors(self, entry: _SlotEntry) -> np.ndarray:
        """Padded, floored per-block row maxima of one entry."""
        table = entry.table
        doubled = np.concatenate((entry.powers, entry.powers), axis=1)
        factors = np.maximum.reduceat(doubled, table.span_edges, axis=1)[
            :, 0::2][:, table.span_blocks]
        if self._floor > 0:
            np.maximum(factors, self._floor * entry.maxima[:, None],
                       out=factors)
        return factors * (1.0 + 1e-12) + 1e-323

    def _fold(self, units: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Equation 8 product at flat ``cells``, slot-ordered per client."""
        likelihood = np.ones(units.shape[0])
        for slot_entries in self._slots:
            for entry in slot_entries:
                if entry.membership is None:
                    likelihood *= self._cell_values(entry, units, cells)
                    continue
                mask = entry.membership[units]
                if not np.any(mask):
                    continue
                selected = np.nonzero(mask)[0]
                likelihood[selected] *= self._cell_values(
                    entry, units[selected], cells[selected])
        return likelihood

    def _cell_values(self, entry: _SlotEntry, owners: np.ndarray,
                     cells: np.ndarray) -> np.ndarray:
        """One placement's ``P_i(theta_i(x))`` term at flat grid cells."""
        table = entry.table
        rows = entry.rows[owners]
        # One flat gather per bound reads the same elements as
        # ``powers[rows, lower]`` at well under half the cost.
        flat = entry.powers.ravel()
        starts = rows * entry.powers.shape[1]
        fraction = table.fraction[cells]
        values = (1.0 - fraction) * flat[starts + table.lower[cells]] \
            + fraction * flat[starts + table.upper[cells]]
        # The AP's own cell is rated zero (the bearing is undefined there);
        # the floor below still applies, as at an arbitrary point.
        values[table.collocated[cells]] = 0.0
        if self._floor > 0:
            np.maximum(values, self._floor * entry.maxima[rows], out=values)
        return values


class BatchLocalizer:
    """Vectorized Equation 8 synthesis for many clients in one pass.

    Parameters
    ----------
    bounds:
        ``(xmin, ymin, xmax, ymax)`` search area in metres.
    config:
        Estimator configuration shared by every client in a batch.
    bearing_cache:
        Cache of per-AP bearing tables; the process-wide default is used
        when omitted.
    """

    def __init__(self, bounds: tuple[float, float, float, float],
                 config: LocalizerConfig | None = None,
                 bearing_cache: BearingGridCache | None = None) -> None:
        xmin, ymin, xmax, ymax = bounds
        if xmax <= xmin or ymax <= ymin:
            raise EstimationError(f"invalid bounds {bounds!r}")
        self.bounds = (float(xmin), float(ymin), float(xmax), float(ymax))
        self.config = config if config is not None else LocalizerConfig()
        self._bearing_cache = bearing_cache if bearing_cache is not None \
            else default_bearing_cache()
        self._layout = _GridLayout(self.bounds, self.config.grid_resolution_m)
        # Interpolation tables and block spans, one per AP placement; built
        # lazily and kept for the localizer's lifetime because they depend
        # only on static deployment geometry.
        self._tables: dict[tuple, _PlacementTable] = {}

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def estimate_batch(self,
                       spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                       ) -> dict[str, LocationEstimate]:
        """Localize every client of the batch from its per-AP spectra.

        Parameters
        ----------
        spectra_by_client:
            Processed spectra per client key (suppression, weighting and
            symmetry removal already applied).  Every spectrum must carry
            its AP position.

        Returns
        -------
        dict
            One :class:`~repro.core.localizer.LocationEstimate` per client
            key, identical (bit for bit) to localizing each client alone.

        Raises
        ------
        EstimationError
            If the batch is empty, any client has no spectra, or a spectrum
            lacks its AP position.
        """
        objective = self._objective(spectra_by_client)
        refine = self.config.refine_with_hill_climbing
        seeds = self._select_seeds(objective,
                                   self.config.num_seeds if refine else 1)
        if refine:
            resolution_m = self.config.grid_resolution_m
            fixes = [(result.position, result.value) for result in refine_many(
                objective.evaluate, seeds,
                initial_step_m=resolution_m / 2.0,
                min_step_m=resolution_m / 20.0)]
        else:
            fixes = [client_seeds[0] for client_seeds in seeds]
        estimates: dict[str, LocationEstimate] = {}
        for key, (position, value) in zip(objective.keys, fixes, strict=True):
            spectra = objective.spectra[key]
            estimates[key] = LocationEstimate(
                position=position,
                likelihood=float(value),
                num_aps=count_distinct_sources(spectra),
                client_id=key or spectra[0].client_id,
            )
        return estimates

    def seeds(self, spectra_by_client: Mapping[str, Sequence[AoASpectrum]],
              count: int) -> dict[str, list[tuple[Point2D, float]]]:
        """Return each client's ``count`` hill-climb seeds and likelihoods.

        These are the seeds :meth:`estimate_batch` climbs from: the best
        grid cells under the Section 2.5 rule of
        :func:`~repro.core.likelihood.greedy_seeds` (exact ties to the
        lowest flat index, no two seeds within three cells), picked without
        folding the whole grid.
        """
        if count < 1:
            raise EstimationError("count must be >= 1")
        objective = self._objective(spectra_by_client)
        return dict(zip(objective.keys,
                        self._select_seeds(objective, count), strict=True))

    def heatmaps(self, spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                 ) -> dict[str, LikelihoodMap]:
        """Return each client's Equation 8 on every grid cell (Figure 14).

        One fold of every cell of every client through the objective the
        fixes read, so each map's cells are bit for bit the values seeding
        ranks.  The whole plane is built, so memory grows with clients
        times cells; a fix never needs it.
        """
        objective = self._objective(spectra_by_client)
        x_coords, y_coords = self._layout.x_coords, self._layout.y_coords
        shape = (y_coords.shape[0], x_coords.shape[0])
        num_cells = shape[0] * shape[1]
        values = objective.fold_cells(
            np.repeat(np.arange(objective.num_units), num_cells),
            np.tile(np.arange(num_cells), objective.num_units))
        return {key: LikelihoodMap(x_coords.copy(), y_coords.copy(), plane)
                for key, plane in zip(objective.keys,
                                      values.reshape(-1, *shape), strict=True)}

    # ------------------------------------------------------------------
    # Stage 1: validation and stacking
    # ------------------------------------------------------------------
    def _objective(self,
                   spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                   ) -> _StackedObjective:
        """Validate the batch and stack it for evaluation."""
        if not spectra_by_client:
            raise EstimationError("cannot localize an empty client batch")
        prepared: dict[str, list[AoASpectrum]] = {}
        for key, spectra in spectra_by_client.items():
            spectra = list(spectra)
            if not spectra:
                raise EstimationError(
                    f"cannot localize client {key!r} without any AoA spectra")
            for spectrum in spectra:
                if spectrum.ap_position is None:
                    raise EstimationError(
                        "every spectrum must carry its AP position for synthesis")
            prepared[key] = spectra
        return _StackedObjective(prepared, self.bounds, self.config,
                                 self._placement_table)

    def _placement_table(self, exemplar: AoASpectrum) -> _PlacementTable:
        """Return the cached geometry tables of one AP placement."""
        key = _placement_key(exemplar)
        table = self._tables.get(key)
        if table is None:
            table = _PlacementTable(exemplar, self._layout,
                                    self._bearing_cache, self.bounds,
                                    self.config.grid_resolution_m)
            self._tables[key] = table
        return table

    # ------------------------------------------------------------------
    # Stage 2/3: bound-and-prune seeding
    # ------------------------------------------------------------------
    def _select_seeds(self, objective: _StackedObjective, count: int
                      ) -> list[list[tuple[Point2D, float]]]:
        """Return each client's ``count`` seeds, as a full fold would pick.

        Every round folds each active client's best blocks by bound and
        runs the greedy seed rule over their cells.  The rule only reads
        cells at or above its last seed's value, so a client whose best
        unfolded block is bounded strictly below that value is done: no
        unfolded cell can precede its last seed, ties included.  Otherwise
        that client's block budget doubles.
        """
        layout = self._layout
        num_blocks = layout.num_blocks
        bounds = objective.block_bounds()
        order = np.argsort(-bounds, axis=1)
        ranked = np.take_along_axis(bounds, order, axis=1)
        num_units = objective.num_units
        seed_cells = np.full((num_units, count), -1)
        seed_values = np.zeros((num_units, count))
        # One block per seed, plus one, holds all seeds of most clients.
        budgets = np.full(num_units, min(count + 1, num_blocks))
        active = np.arange(num_units)
        while active.shape[0]:
            sizes = budgets[active]
            owners = np.repeat(active, sizes)
            ranks = np.arange(owners.shape[0]) \
                - np.repeat(np.cumsum(sizes) - sizes, sizes)
            units, cells = layout.cells_of(owners, order[owners, ranks])
            values = objective.fold_cells(units, cells)
            picks = greedy_seeds(units, cells, values, num_units,
                                 layout.x_coords, layout.y_coords,
                                 count)[active]
            found = picks >= 0
            last_values = values[picks[np.arange(active.shape[0]),
                                       np.sum(found, axis=1) - 1]]
            next_bounds = ranked[active, np.minimum(sizes, num_blocks - 1)]
            done = (sizes == num_blocks) | (
                found[:, -1] & (next_bounds < last_values))
            seed_cells[active[done]] = np.where(found[done],
                                                cells[picks[done]], -1)
            seed_values[active[done]] = np.where(found[done],
                                                 values[picks[done]], 0.0)
            active = active[~done]
            budgets[active] = np.minimum(2 * budgets[active], num_blocks)
        num_x = layout.x_coords.shape[0]
        x_coords = layout.x_coords.tolist()
        y_coords = layout.y_coords.tolist()
        return [[(Point2D(x_coords[cell % num_x], y_coords[cell // num_x]),
                  value)
                 for cell, value in zip(cells_row, values_row, strict=True)
                 if cell >= 0]
                for cells_row, values_row in zip(seed_cells.tolist(),
                                                 seed_values.tolist(),
                                                 strict=True)]
