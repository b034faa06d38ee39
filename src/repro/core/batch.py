"""Batched multi-client location synthesis (Equation 8 across many clients).

The seed implementation localized one client per call: for every fix it
re-derived each AP's bearing table, re-built each spectrum's interpolation
indices, and folded the Equation 8 product in per-client Python loops.  All
of that work except the final product depends only on the *deployment* (AP
positions/orientations, angle grid, search grid), not on the client, so a
server localizing hundreds of clients against the same six APs repeats it
hundreds of times.

:class:`BatchLocalizer` restructures the computation around that
observation:

1. bearing tables come from the shared
   :class:`~repro.core.cache.BearingGridCache` (one ``arctan2`` sweep per AP
   per deployment);
2. spectra are grouped by AP "placement" (position, orientation, angle
   grid), the circular-interpolation table is built once per group, and the
   power planes of *all* clients heard by that AP are gathered in one stacked
   NumPy fancy-indexing pass;
3. the Equation 8 product is folded per client, in each client's own
   spectrum order, so a batched fix is bit-for-bit identical to the same
   client localized alone;
4. hill-climbing refinement (Section 2.5) is seeded from each client's own
   likelihood plane and driven by the vectorized refiner
   (:func:`repro.core.optimizer.refine_many`): each round stacks the
   compass-neighbour candidates of every active climber of every client and
   evaluates them in one Equation 8 pass per AP slot
   (:class:`_StackedObjective`), replaying the exact tie-breaking and
   evaluation budget of :func:`~repro.core.optimizer.hill_climb` over
   :func:`~repro.core.likelihood.likelihood_at`, so a refined fix is
   bit-for-bit what that per-candidate climb would reach.

:class:`~repro.core.localizer.LocationEstimator` is a thin wrapper running
this engine with a batch of one, so there is exactly one synthesis code
path to test and optimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

try:  # SciPy is optional: it accelerates the fold but never changes results.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - exercised via the forced fallback test
    _sparse = None

from repro.errors import EstimationError
from repro.geometry.vector import Point2D, normalize_angle_deg
from repro.core.cache import (
    BearingGridCache,
    default_bearing_cache,
    grid_axes,
)
from repro.core.likelihood import LikelihoodMap
from repro.core.localizer import (
    LocalizerConfig,
    LocationEstimate,
)
from repro.core.optimizer import HillClimbResult, refine_many
from repro.core.spectrum import AoASpectrum

__all__ = ["BatchLocalizer", "count_distinct_sources"]


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


@dataclass
class _PlacementGroup:
    """All (client, spectrum) jobs sharing one AP placement and angle grid."""

    ap_position: Point2D
    # Power rows to evaluate, one per job, all on the same angle grid.
    powers: list[np.ndarray]
    # (client key, slot in that client's spectrum list) per job.
    jobs: list[tuple[str, int]]
    # Representative spectrum (supplies orientation + angle grid).
    exemplar: AoASpectrum


class _FoldedBatch:
    """Per-client Equation 8 products, stored row-wise or cell-major.

    The rectangular sparse path produces one ``(cells, clients)`` matrix;
    the fallback paths produce one flat ``(cells,)`` row per client.  This
    wrapper gives the estimation stage a uniform view of both, including a
    vectorized batch argmax for grid-only fixes.
    """

    def __init__(self, order: Sequence[str],
                 rows: Mapping[str, np.ndarray] | None = None,
                 cell_major: np.ndarray | None = None) -> None:
        self._index = {key: index for index, key in enumerate(order)}
        self._rows = rows
        self._cell_major = cell_major
        self._argmax: np.ndarray | None = None

    def flat_values(self, key: str) -> np.ndarray:
        """Return the client's flat likelihood plane, C-contiguous."""
        if self._rows is not None:
            return self._rows[key]
        assert self._cell_major is not None
        return np.ascontiguousarray(self._cell_major[:, self._index[key]])

    def peak(self, key: str) -> tuple[int, float]:
        """Return ``(flat cell index, likelihood)`` of the client's maximum."""
        if self._cell_major is not None:
            if self._argmax is None:
                # One streaming pass over the whole batch; NumPy's reduction
                # keeps first-maximum semantics, matching 1-D argmax.
                self._argmax = np.argmax(self._cell_major, axis=0)
            column = self._index[key]
            flat_index = int(self._argmax[column])
            return flat_index, float(self._cell_major[flat_index, column])
        assert self._rows is not None
        values = self._rows[key]
        flat_index = int(np.argmax(values))
        return flat_index, float(values[flat_index])


class _SlotEntry:
    """One (slot index, AP placement) group of the stacked refinement.

    Holds the stacked (and normalized) power rows of every client whose
    ``slot``-th spectrum sits at this placement, plus the unit-index ->
    power-row mapping the evaluator gathers through.
    """

    __slots__ = ("ap_x", "ap_y", "orientation_deg", "resolution_deg",
                 "num_angles", "powers", "maxima", "membership", "rows")

    def __init__(self, exemplar: AoASpectrum) -> None:
        self.ap_x = float(exemplar.ap_position.x)
        self.ap_y = float(exemplar.ap_position.y)
        self.orientation_deg = float(exemplar.ap_orientation_deg)
        self.resolution_deg = float(exemplar.resolution_deg)
        self.num_angles = int(exemplar.angles_deg.shape[0])
        self.powers: np.ndarray = np.empty(0)       # (jobs, angles), stacked
        self.maxima: np.ndarray = np.empty(0)       # per-row max (floor term)
        #: ``membership[u]`` is True when unit ``u`` has a row here; None
        #: means *every* unit does (the rectangular fast path, where the
        #: evaluator skips the boolean select entirely).
        self.membership: np.ndarray | None = None
        self.rows: np.ndarray = np.empty(0, dtype=int)  # unit index -> row


class _StackedObjective:
    """Batched Section 2.5 objective: Equation 8 at arbitrary points.

    The scalar refinement objective is ``likelihood_at(normalized_spectra,
    position, floor)`` with out-of-bounds candidates rated 0.0; this class
    is its stacked equivalent for :func:`repro.core.optimizer.refine_many`:
    ``evaluate(units, xs, ys)`` scores every candidate point against its
    own client's spectra in one NumPy pass per (slot, AP placement) group.

    Bit-exactness with the scalar path holds because every step performs
    the identical elementwise arithmetic -- the ``arctan2`` bearing (with
    :func:`~repro.geometry.vector.normalize_angle_deg`'s fold of a
    float-rounded 360.0 back to 0.0), the circular interpolation of
    :meth:`~repro.core.spectrum.AoASpectrum.interpolation_table`, the
    collocated-point zero of
    :meth:`~repro.core.spectrum.AoASpectrum.power_towards` and the floor
    max of :func:`~repro.core.likelihood.likelihood_at` -- and because the
    per-point product is folded slot by slot, i.e. in each client's own
    spectrum order, exactly like the scalar fold.
    """

    def __init__(self, keys: Sequence[str],
                 prepared: Mapping[str, list[AoASpectrum]],
                 bounds: tuple[float, float, float, float],
                 config: LocalizerConfig) -> None:
        self._bounds = bounds
        self._floor = config.spectrum_floor
        num_units = len(keys)
        entries: dict[tuple[int, tuple], _SlotEntry] = {}
        jobs: dict[tuple[int, tuple], list[tuple[int, np.ndarray]]] = {}
        max_slots = 0
        for unit, key in enumerate(keys):
            spectra = prepared[key]
            max_slots = max(max_slots, len(spectra))
            for slot, spectrum in enumerate(spectra):
                group = (slot, _placement_key(spectrum))
                if group not in entries:
                    entries[group] = _SlotEntry(spectrum)
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
            # ``likelihood_at`` floors against each (normalized) spectrum's
            # own maximum, so recompute it on the rows actually evaluated.
            entry.maxima = np.max(stacked, axis=1)
            units = np.array([unit for unit, _ in group_jobs], dtype=int)
            rows = np.zeros(num_units, dtype=int)
            rows[units] = np.arange(units.shape[0])
            entry.rows = rows
            if units.shape[0] != num_units:
                membership = np.zeros(num_units, dtype=bool)
                membership[units] = True
                entry.membership = membership
            self._slots[slot].append(entry)

    def evaluate(self, units: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray) -> np.ndarray:
        """Return the refinement objective at every candidate point."""
        units = np.asarray(units, dtype=int)
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        # The scalar objective short-circuits out-of-bounds candidates to
        # 0.0 without touching the spectra; do the same (climbers near the
        # boundary probe outside every round) and fold only the rest.
        xmin, ymin, xmax, ymax = self._bounds
        inside = (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        if not np.all(inside):
            values = np.zeros(xs.shape[0])
            kept = np.nonzero(inside)[0]
            if kept.shape[0]:
                values[kept] = self._fold_points(units[kept], xs[kept],
                                                 ys[kept])
            return values
        return self._fold_points(units, xs, ys)

    def _fold_points(self, units: np.ndarray, xs: np.ndarray,
                     ys: np.ndarray) -> np.ndarray:
        """Equation 8 product at in-bounds points, slot-ordered per client."""
        likelihood = np.ones(xs.shape[0])
        for slot_entries in self._slots:
            for entry in slot_entries:
                if entry.membership is None:
                    likelihood *= self._spectrum_values(entry, units, xs, ys)
                    continue
                mask = entry.membership[units]
                if not np.any(mask):
                    continue
                selected = np.nonzero(mask)[0]
                likelihood[selected] *= self._spectrum_values(
                    entry, units[selected], xs[selected], ys[selected])
        return likelihood

    def _spectrum_values(self, entry: _SlotEntry, owners: np.ndarray,
                         xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """One placement's ``P_i(theta_i(x))`` term for a set of points."""
        dx = xs - entry.ap_x
        dy = ys - entry.ap_y
        # The scalar objective takes its bearing from
        # :func:`~repro.geometry.vector.bearing_deg`, i.e. ``math.atan2``.
        # NumPy's ``arctan2`` kernel disagrees with libm in the last ulp for
        # a few percent of inputs, which would break the bit-equality
        # guarantee -- so the (cheap, candidates-only) bearing stays on the
        # exact scalar call chain; everything after it is IEEE-exact
        # elementwise arithmetic and safely vectorized.
        bearings = np.array([
            normalize_angle_deg(math.degrees(math.atan2(dy_i, dx_i)))
            if (dx_i != 0.0 or dy_i != 0.0) else 0.0
            for dx_i, dy_i in zip(dx.tolist(), dy.tolist(), strict=True)])
        query = (bearings - entry.orientation_deg) % 360.0
        positions = query / entry.resolution_deg
        floor_positions = np.floor(positions)
        lower = floor_positions.astype(int) % entry.num_angles
        upper = (lower + 1) % entry.num_angles
        fraction = positions - floor_positions
        rows = entry.rows[owners]
        values = (1.0 - fraction) * entry.powers[rows, lower] \
            + fraction * entry.powers[rows, upper]
        collocated = np.hypot(dx, dy) < 1e-9
        if np.any(collocated):
            # power_towards rates the AP's own location zero (the bearing
            # is undefined there); the floor below still applies, exactly
            # like the scalar path.
            values[collocated] = 0.0
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
        # Sparse interpolation operators, one per (AP placement, resolution);
        # built lazily and kept for the localizer's lifetime because they
        # depend only on static deployment geometry.
        self._plan_cache: dict[tuple, "_sparse.csr_matrix"] = {}

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
        if not spectra_by_client:
            raise EstimationError("cannot localize an empty client batch")
        prepared = self._prepare(spectra_by_client)
        folded = self._fold_batch(prepared)
        seeds, heatmaps = self._seed_batch(prepared, folded)
        refined = self._refine_batch(prepared, seeds)
        estimates: dict[str, LocationEstimate] = {}
        for key, spectra in prepared.items():
            estimates[key] = self._estimate_client(
                key, spectra, folded, heatmaps.get(key), refined.get(key))
        return estimates

    # ------------------------------------------------------------------
    # Stage 1: validation and normalization
    # ------------------------------------------------------------------
    def _prepare(self, spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                 ) -> dict[str, list[AoASpectrum]]:
        """Validate the batch; normalization happens later, in stacked form."""
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
        return prepared

    def _normalize_stack(self, stacked: np.ndarray) -> np.ndarray:
        """Scale each stacked power row to unit maximum (Equation 8 prep).

        Row-wise equivalent of :meth:`AoASpectrum.normalized` -- the same
        single division per element -- but performed on the already-stacked
        batch so no per-spectrum dataclass copies are made on the hot path.
        """
        maxima = np.max(stacked, axis=1)
        if np.any(maxima <= 0):
            raise EstimationError("cannot normalize an all-zero spectrum")
        stacked /= maxima[:, None]
        return stacked

    # ------------------------------------------------------------------
    # Stage 2: stacked per-AP grid evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _placement_key(spectrum: AoASpectrum) -> tuple:
        return _placement_key(spectrum)

    def _interpolation_table(self, exemplar: AoASpectrum
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the grid-to-spectrum interpolation table for one placement."""
        bearing_grid = self._bearing_cache.get(
            self.bounds, self.config.grid_resolution_m, exemplar.ap_position)
        return exemplar.interpolation_table(
            bearing_grid.bearings_deg - exemplar.ap_orientation_deg)

    def _interpolation_plan(self, exemplar: AoASpectrum) -> "_sparse.csr_matrix":
        """Return the cached ``(cells, angles)`` sparse interpolation operator.

        Row ``g`` holds ``1 - fraction`` at column ``lower[g]`` and
        ``fraction`` at column ``upper[g]``, so ``plan @ powers`` evaluates
        the circular interpolation for every grid cell with two multiplies
        and one (commutative, hence bit-exact) addition per cell -- the same
        arithmetic as :meth:`_gather_chunk`, at a fraction of the memory
        traffic.  Depends only on deployment geometry, so it is built once
        per (AP placement, grid resolution) and reused for every batch.
        """
        key = self._placement_key(exemplar) \
            + (float(self.config.grid_resolution_m),)
        plan = self._plan_cache.get(key)
        if plan is None:
            lower, upper, fraction = self._interpolation_table(exemplar)
            cells = np.arange(lower.shape[0])
            plan = _sparse.csr_matrix(
                (np.concatenate([1.0 - fraction, fraction]),
                 (np.concatenate([cells, cells]),
                  np.concatenate([lower, upper]))),
                shape=(lower.shape[0], int(exemplar.angles_deg.shape[0])))
            self._plan_cache[key] = plan
        return plan

    @staticmethod
    def _gather_chunk(rows: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                      fraction: np.ndarray, floor: float,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate a chunk of stacked power rows over the grid, in place.

        Computes ``power[lower] * (1 - fraction) + power[upper] * fraction``
        for every row -- elementwise identical to
        :func:`repro.core.likelihood.spectrum_grid_powers` (multiplication
        commutes exactly in IEEE arithmetic) -- while keeping every
        temporary at chunk size so the hot loop stays cache resident.
        ``out``, when given, receives the result without an extra copy.
        """
        if out is None:
            gathered = rows[:, lower]
        else:
            gathered = np.take(rows, lower, axis=1, out=out)
        gathered *= 1.0 - fraction
        upper_part = rows[:, upper]
        upper_part *= fraction
        gathered += upper_part
        if floor > 0:
            maxima = np.max(rows, axis=1)
            np.maximum(gathered, floor * maxima[:, None], out=gathered)
        return gathered

    def _fold_batch(self, prepared: Mapping[str, list[AoASpectrum]]
                    ) -> _FoldedBatch:
        """Fold each client's Equation 8 product over the flat grid.

        When every client carries the same sequence of AP placements (the
        common server workload: each client heard once by each deployed AP)
        the evaluation runs down the rectangular fast path: the power rows
        of all clients are stacked per AP and evaluated in one pass -- via
        the cached sparse interpolation operator when SciPy is available,
        or chunked in-place gathers otherwise.  Ragged batches (clients
        heard by different AP subsets) fall back to a per-placement
        grouping that evaluates each group in one stacked pass and folds
        per client.  All paths perform the same elementwise operations in
        each client's own spectrum order, so every client's plane is
        bit-for-bit the one a single-client fix computes.
        """
        keys = list(prepared.keys())
        sequences = {key: [self._placement_key(s) for s in prepared[key]]
                     for key in keys}
        first = sequences[keys[0]]
        rectangular = len(set(first)) == len(first) and all(
            sequences[key] == first for key in keys)
        if rectangular and _sparse is not None:
            return self._fold_rectangular_sparse(keys, prepared)
        if rectangular:
            return self._fold_rectangular_gather(keys, prepared)
        return self._fold_ragged(keys, prepared, sequences)

    def _stack_slot(self, keys: list[str],
                    prepared: Mapping[str, list[AoASpectrum]],
                    slot: int) -> np.ndarray:
        """Stack (and normalize) every client's power row for one AP slot."""
        stacked = np.stack([prepared[key][slot].power for key in keys])
        if self.config.normalize_spectra:
            stacked = self._normalize_stack(stacked)
        return stacked

    def _fold_rectangular_sparse(self, keys: list[str],
                                 prepared: Mapping[str, list[AoASpectrum]]
                                 ) -> _FoldedBatch:
        """Fold via cached sparse operators, chunked to stay cache resident.

        Clients are processed in column chunks sized so every per-slot
        ``(cells, chunk)`` plane and the running product fit in the CPU
        cache; only the finished product of each chunk streams out to the
        full ``(cells, clients)`` matrix.
        """
        floor = self.config.spectrum_floor
        slots = []
        for slot in range(len(prepared[keys[0]])):
            exemplar = prepared[keys[0]][slot]
            plan = self._interpolation_plan(exemplar)
            stacked = self._stack_slot(keys, prepared, slot)
            maxima = np.max(stacked, axis=1) if floor > 0 else None
            slots.append((plan, stacked, maxima))
        num_cells = slots[0][0].shape[0]
        num_clients = len(keys)
        chunk = max(1, 524288 // num_cells)
        accumulator = np.empty((num_cells, num_clients))
        for start in range(0, num_clients, chunk):
            stop = min(start + chunk, num_clients)
            chunk_product: np.ndarray | None = None
            for plan, stacked, maxima in slots:
                planes = plan @ stacked[start:stop].T     # (cells, chunk)
                if floor > 0:
                    assert maxima is not None
                    np.maximum(planes, floor * maxima[start:stop][None, :],
                               out=planes)
                if chunk_product is None:
                    chunk_product = planes
                else:
                    chunk_product *= planes
            assert chunk_product is not None
            accumulator[:, start:stop] = chunk_product
        return _FoldedBatch(keys, cell_major=accumulator)

    def _fold_rectangular_gather(self, keys: list[str],
                                 prepared: Mapping[str, list[AoASpectrum]]
                                 ) -> _FoldedBatch:
        """SciPy-free fold: chunked in-place gathers sized for the cache."""
        floor = self.config.spectrum_floor
        tables = []
        for slot in range(len(prepared[keys[0]])):
            exemplar = prepared[keys[0]][slot]
            lower, upper, fraction = self._interpolation_table(exemplar)
            stacked = self._stack_slot(keys, prepared, slot)
            tables.append((lower, upper, fraction, stacked))
        num_cells = tables[0][0].shape[0]
        num_clients = len(keys)
        # Chunk rows so each (chunk, cells) temporary stays near the CPU
        # cache; the fold then touches main memory once per output row.
        chunk = max(1, 524288 // num_cells)
        folded = np.empty((num_clients, num_cells))
        scratch = np.empty((min(chunk, num_clients), num_cells))
        for start in range(0, num_clients, chunk):
            stop = min(start + chunk, num_clients)
            accumulator: np.ndarray | None = None
            for lower, upper, fraction, stacked in tables:
                if accumulator is None:
                    # The first plane lands straight in the output rows;
                    # later planes reuse one scratch buffer per chunk.
                    accumulator = self._gather_chunk(
                        stacked[start:stop], lower, upper, fraction, floor,
                        out=folded[start:stop])
                else:
                    gathered = self._gather_chunk(
                        stacked[start:stop], lower, upper, fraction, floor,
                        out=scratch[:stop - start])
                    accumulator *= gathered
            assert accumulator is not None
        return _FoldedBatch(
            keys, rows={key: folded[index] for index, key in enumerate(keys)})

    def _fold_ragged(self, keys: list[str],
                     prepared: Mapping[str, list[AoASpectrum]],
                     sequences: Mapping[str, list[tuple]]
                     ) -> _FoldedBatch:
        groups: dict[tuple, _PlacementGroup] = {}
        for key in keys:
            for slot, spectrum in enumerate(prepared[key]):
                placement = sequences[key][slot]
                group = groups.get(placement)
                if group is None:
                    group = _PlacementGroup(ap_position=spectrum.ap_position,
                                            powers=[], jobs=[],
                                            exemplar=spectrum)
                    groups[placement] = group
                group.powers.append(spectrum.power)
                group.jobs.append((key, slot))
        floor = self.config.spectrum_floor
        planes: dict[str, list[np.ndarray | None]] = {
            key: [None] * len(prepared[key]) for key in keys}
        for group in groups.values():
            lower, upper, fraction = self._interpolation_table(group.exemplar)
            stacked = np.stack(group.powers, axis=0)      # (jobs, angles)
            if self.config.normalize_spectra:
                stacked = self._normalize_stack(stacked)
            gathered = self._gather_chunk(stacked, lower, upper, fraction,
                                          floor)          # (jobs, cells)
            for row, (key, slot) in enumerate(group.jobs):
                planes[key][slot] = gathered[row]
        folded: dict[str, np.ndarray] = {}
        for key in keys:
            values: np.ndarray | None = None
            for plane in planes[key]:
                assert plane is not None
                values = plane if values is None else values * plane
            assert values is not None
            folded[key] = values
        return _FoldedBatch(keys, rows=folded)

    # ------------------------------------------------------------------
    # Stage 3/4: seeding and refinement
    # ------------------------------------------------------------------
    def _seed_batch(self, prepared: Mapping[str, list[AoASpectrum]],
                    folded: _FoldedBatch
                    ) -> tuple[dict[str, list[tuple[Point2D, float]]],
                               dict[str, LikelihoodMap]]:
        """Extract hill-climb seeds (and optionally heatmaps) per client.

        Each client's folded plane is viewed as a grid map just long enough
        to rank its top cells; the map itself is only *retained* under
        ``keep_heatmap`` (on the cell-major fold path ``flat_values``
        copies, so holding every client's map alive through refinement
        would double the batch's peak memory for nothing).  Grid-only
        estimates without ``keep_heatmap`` skip the reshape entirely and
        use the batched argmax.
        """
        needs_seeds = self.config.refine_with_hill_climbing
        if not needs_seeds and not self.config.keep_heatmap:
            return {}, {}
        x_coords, y_coords = grid_axes(self.bounds,
                                       self.config.grid_resolution_m)
        shape = (y_coords.shape[0], x_coords.shape[0])
        seeds: dict[str, list[tuple[Point2D, float]]] = {}
        heatmaps: dict[str, LikelihoodMap] = {}
        for key in prepared:
            heatmap = LikelihoodMap(x_coords, y_coords,
                                    folded.flat_values(key).reshape(shape))
            if needs_seeds:
                seeds[key] = heatmap.top_positions(self.config.num_seeds)
            if self.config.keep_heatmap:
                heatmaps[key] = heatmap
        return seeds, heatmaps

    def _refine_batch(self, prepared: Mapping[str, list[AoASpectrum]],
                      seeds_by_key: Mapping[str, list[tuple[Point2D, float]]]
                      ) -> dict[str, HillClimbResult]:
        """Run the Section 2.5 hill climbing for every client of the batch.

        All clients climb together: each round evaluates the stacked
        candidates of every active climber through
        :class:`_StackedObjective` -- one Equation 8 pass per AP slot
        instead of one Python call per candidate point.
        """
        if not self.config.refine_with_hill_climbing:
            return {}
        keys = list(prepared.keys())
        objective = _StackedObjective(keys, prepared, self.bounds, self.config)
        resolution_m = self.config.grid_resolution_m
        results = refine_many(objective.evaluate,
                              [seeds_by_key[key] for key in keys],
                              initial_step_m=resolution_m / 2.0,
                              min_step_m=resolution_m / 20.0)
        return dict(zip(keys, results, strict=True))

    def _estimate_client(self, key: str, spectra: list[AoASpectrum],
                         folded: _FoldedBatch,
                         heatmap: LikelihoodMap | None,
                         refined: HillClimbResult | None
                         ) -> LocationEstimate:
        if refined is not None:
            position, value = refined.position, refined.value
        else:
            # Grid-only estimates only need the peak cell, so skip the full
            # seed ranking and take the (batch-vectorized) argmax directly.
            x_coords, y_coords = grid_axes(self.bounds,
                                           self.config.grid_resolution_m)
            flat_index, value = folded.peak(key)
            row, column = divmod(flat_index, x_coords.shape[0])
            position = Point2D(float(x_coords[column]), float(y_coords[row]))
        client = key or (spectra[0].client_id if spectra else "")
        return LocationEstimate(
            position=position,
            likelihood=float(value),
            num_aps=count_distinct_sources(spectra),
            client_id=client,
            heatmap=heatmap if self.config.keep_heatmap else None,
        )
