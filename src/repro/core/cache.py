"""Precomputed-geometry caches shared by the spectrum and synthesis stages.

Two of ArrayTrack's hot-path quantities are pure functions of the *static*
deployment geometry and therefore need to be computed exactly once per
deployment rather than once per frame or per fix:

* the MUSIC/Bartlett/Capon **steering matrix** of Equation 6 -- the array
  response ``a(theta)`` evaluated over the angle grid -- depends only on the
  element positions, the angle grid and the carrier wavelength (Section
  2.3.1);
* the **bearing grid** of Equation 8 -- the bearing ``theta_i(x)`` of every
  candidate grid cell ``x`` as seen from AP ``i`` -- depends only on the
  search bounds, the grid resolution and the AP position (Section 2.5).

The seed implementation recomputed both on every call, which is fine for a
single experiment but dominates the per-fix cost once a server handles many
clients against a fixed set of APs.  :class:`SteeringCache` and
:class:`BearingGridCache` memoize them behind content-derived keys (and
:class:`WindowCache` does the same for the Section 2.3.3 geometry window);
module level default instances are shared by :mod:`repro.core.music`,
:mod:`repro.core.weighting` and :mod:`repro.core.batch` so that every AP
with the same geometry (and every fix against the same floorplan) reuses one
table.  All three are key-and-compute adapters over one lock-guarded LRU.

Cached arrays are returned with ``writeable=False``: callers treat them as
immutable lookup tables, never as scratch space.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, TypeVar

import numpy as np

from repro.dtypes import as_float_array
from repro.errors import EstimationError
from repro.geometry.vector import Point2D, bearings_deg

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from repro.array.geometry import ArrayGeometry

__all__ = [
    "BearingGrid",
    "BearingGridCache",
    "CacheStats",
    "SteeringCache",
    "WindowCache",
    "clear_default_caches",
    "default_bearing_cache",
    "default_steering_cache",
    "default_window_cache",
]


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_V = TypeVar("_V")


class _LRU(Generic[_V]):
    """A lock-guarded LRU of immutable tables: every cache here is one.

    The module-level default caches are shared by every service and caller
    thread of a process, and the lookup/move-to-end/evict sequences are
    not atomic on their own (a concurrent eviction between ``get()`` and
    ``move_to_end()`` raises ``KeyError``), so every entry/stats mutation
    takes the lock.  The (expensive) table computation runs outside it: a
    racing duplicate compute is benign and identical, and the first stored
    table wins.

    Parameters
    ----------
    max_entries:
        Number of distinct tables retained; least recently used entries
        are evicted beyond that.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise EstimationError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()  # guarded-by: _lock
        self._entries: "OrderedDict[tuple, _V]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _lookup(self, key: tuple, compute: Callable[[], _V]) -> _V:
        """Return the entry under ``key``, storing ``compute()`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.stats.misses += 1
        entry = compute()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    def clear(self) -> None:
        """Drop every entry (counters are kept; use ``stats.reset()``)."""
        with self._lock:
            self._entries.clear()


class SteeringCache(_LRU[np.ndarray]):
    """LRU cache of steering matrices keyed on geometry, grid and carrier.

    The key is content-derived -- element positions and angle grid enter via
    their raw bytes -- so two :class:`~repro.array.geometry.ArrayGeometry`
    instances with identical element layouts (every AP built from the same
    :class:`~repro.ap.access_point.APConfig`) share one entry.

    Parameters
    ----------
    max_entries:
        Number of distinct steering matrices retained.  A deployment needs
        one entry per distinct (geometry, angle grid, wavelength)
        combination, so the default is generous.
    """

    def __init__(self, max_entries: int = 128) -> None:
        super().__init__(max_entries)

    def get(self, geometry: ArrayGeometry, angles_deg: np.ndarray,
            wavelength_m: float) -> np.ndarray:
        """Return the ``(M, K)`` steering matrix, computing it on first use.

        Parameters
        ----------
        geometry:
            An :class:`~repro.array.geometry.ArrayGeometry`.
        angles_deg:
            1-D azimuth grid in the array's local frame.
        wavelength_m:
            Carrier wavelength (Equation 6).  Arrivals are taken in the
            array's horizontal plane.

        Returns
        -------
        numpy.ndarray
            Read-only complex steering matrix; do not mutate.
        """
        angles = np.ascontiguousarray(as_float_array(angles_deg))
        positions = np.ascontiguousarray(geometry.element_positions)
        key = (positions.shape, positions.tobytes(), angles.shape,
               angles.tobytes(), float(wavelength_m))
        return self._lookup(key, lambda: _readonly(np.ascontiguousarray(
            geometry.steering_matrix(angles, wavelength_m=wavelength_m))))


@dataclass(frozen=True)
class BearingGrid:
    """Bearing of every search-grid cell as seen from one AP (Equation 8).

    Attributes
    ----------
    x_coords, y_coords:
        Grid coordinates (metres) along each axis, identical to the axes of
        the :class:`~repro.core.likelihood.LikelihoodMap` planes of
        :meth:`~repro.core.batch.BatchLocalizer.heatmaps`.
    bearings_deg:
        Read-only ``(len(y_coords) * len(x_coords),)`` flat array of
        building-frame bearings in ``[0, 360)`` degrees, row-major (y rows).
    collocated:
        Read-only flat indices of the cells within 1 nm of the AP, where
        the bearing is undefined; Equation 8 rates them zero before the
        floor, as :class:`~repro.core.batch.BatchLocalizer` does at any
        point within 1 nm of an AP.
    """

    x_coords: np.ndarray
    y_coords: np.ndarray
    bearings_deg: np.ndarray
    collocated: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, columns)`` of the search grid."""
        return (int(self.y_coords.shape[0]), int(self.x_coords.shape[0]))

    @property
    def num_cells(self) -> int:
        """Total number of grid cells."""
        return int(self.bearings_deg.shape[0])


def grid_axes(bounds: tuple[float, float, float, float],
              resolution_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``(x_coords, y_coords)`` search-grid axes for ``bounds``.

    This is the single definition of the Section 2.5 grid layout; the
    likelihood synthesis and the bearing cache both build on it so their
    grids can never drift apart.
    """
    xmin, ymin, xmax, ymax = bounds
    if xmax <= xmin or ymax <= ymin:
        raise EstimationError(f"invalid bounds {bounds!r}")
    if resolution_m <= 0:
        raise EstimationError(f"resolution must be positive, got {resolution_m!r}")
    # Exact-count axis build (repro-lint RPR001): the old float-step
    # ``np.arange(xmin, xmax + res/2, res)`` let rounding drift both the
    # point count and the endpoint for resolutions whose reciprocal is
    # inexact.  The counts below reproduce arange's ceil((stop - start) /
    # step) semantics exactly, and ``np.linspace`` pins every coordinate
    # without accumulating the step.
    num_x = int(np.ceil((xmax + resolution_m / 2.0 - xmin) / resolution_m))
    num_y = int(np.ceil((ymax + resolution_m / 2.0 - ymin) / resolution_m))
    x_coords = np.linspace(xmin, xmin + resolution_m * (num_x - 1), num_x)
    y_coords = np.linspace(ymin, ymin + resolution_m * (num_y - 1), num_y)
    return x_coords, y_coords


class BearingGridCache(_LRU[BearingGrid]):
    """Cache of per-AP bearing tables over a fixed search grid.

    One entry exists per ``(bounds, resolution, AP position)``: for a static
    deployment that is one ``arctan2`` sweep per AP for the lifetime of the
    server, instead of one per AP *per fix* as in the seed implementation.
    """

    def __init__(self, max_entries: int = 256) -> None:
        super().__init__(max_entries)

    def get(self, bounds: tuple[float, float, float, float],
            resolution_m: float, ap_position: Point2D) -> BearingGrid:
        """Return the bearing grid for ``ap_position`` over ``bounds``.

        The bearings come from :func:`~repro.geometry.vector.bearings_deg`,
        the kernel the scalar ``bearing_deg`` wraps, so a cached cell and
        the same point evaluated alone agree bit for bit.
        """
        key = (
            tuple(float(value) for value in bounds),
            float(resolution_m),
            float(ap_position.x),
            float(ap_position.y),
        )

        def compute() -> BearingGrid:
            x_coords, y_coords = grid_axes(bounds, resolution_m)
            grid_x, grid_y = np.meshgrid(x_coords, y_coords)
            dx = (grid_x - float(ap_position.x)).ravel()
            dy = (grid_y - float(ap_position.y)).ravel()
            return BearingGrid(
                x_coords=_readonly(x_coords),
                y_coords=_readonly(y_coords),
                bearings_deg=_readonly(bearings_deg(dx, dy)),
                collocated=_readonly(np.flatnonzero(np.hypot(dx, dy) < 1e-9)),
            )

        return self._lookup(key, compute)

    def warm(self, bounds: tuple[float, float, float, float],
             resolution_m: float,
             ap_positions: Iterable[Point2D | tuple[float, float]]) -> int:
        """Populate the cache for every AP position of a deployment.

        Used by per-worker initializers (process-backend sharding): a fresh
        worker process starts with empty caches, and warming the known AP
        fleet up front keeps the first sharded batch from paying the
        ``arctan2`` sweeps inline.  ``ap_positions`` may hold
        :class:`~repro.geometry.vector.Point2D`\\ s or ``(x, y)`` pairs.
        Returns the number of positions warmed.
        """
        count = 0
        for position in ap_positions:
            if not isinstance(position, Point2D):
                x, y = position
                position = Point2D(float(x), float(y))
            self.get(bounds, resolution_m, position)
            count += 1
        return count


class WindowCache(_LRU[np.ndarray]):
    """LRU cache of Section 2.3.3 geometry windows keyed on grid and angle.

    The W(theta) window of :func:`repro.core.weighting.geometry_window` is a
    pure function of the angle grid and the reliable-angle parameter, yet the
    seed pipeline recomputed it for every frame.  Like its sibling
    :class:`SteeringCache`, the key is content-derived (the grid enters via
    its raw bytes) so every AP sharing a grid signature shares one window.
    The computation itself is injected by the caller (keeps this module
    free of a weighting import cycle).
    """

    def __init__(self, max_entries: int = 64) -> None:
        super().__init__(max_entries)

    def get(self, angles_deg: np.ndarray, reliable_angle_deg: float,
            compute: Callable[[], np.ndarray]) -> np.ndarray:
        """Return the window for ``angles_deg``, computing it on first use.

        Parameters
        ----------
        angles_deg:
            1-D angle grid the window is evaluated on.
        reliable_angle_deg:
            The endfire-reliability parameter of the window.
        compute:
            Zero-argument callable producing the window on a cache miss.

        Returns
        -------
        numpy.ndarray
            Read-only float window; do not mutate.
        """
        angles = np.ascontiguousarray(as_float_array(angles_deg))
        key = (angles.shape, angles.tobytes(), float(reliable_angle_deg))
        return self._lookup(
            key, lambda: _readonly(np.ascontiguousarray(compute())))


# ----------------------------------------------------------------------
# Shared default instances
# ----------------------------------------------------------------------
_DEFAULT_STEERING_CACHE = SteeringCache()
_DEFAULT_BEARING_CACHE = BearingGridCache()
_DEFAULT_WINDOW_CACHE = WindowCache()


def default_steering_cache() -> SteeringCache:
    """Return the process-wide steering cache used by :mod:`repro.core.music`."""
    return _DEFAULT_STEERING_CACHE


def default_bearing_cache() -> BearingGridCache:
    """Return the process-wide bearing cache used by the likelihood synthesis."""
    return _DEFAULT_BEARING_CACHE


def default_window_cache() -> WindowCache:
    """Return the process-wide W(theta) cache used by :mod:`repro.core.weighting`."""
    return _DEFAULT_WINDOW_CACHE


def clear_default_caches() -> None:
    """Empty every shared cache (useful between benchmark configurations)."""
    _DEFAULT_STEERING_CACHE.clear()
    _DEFAULT_BEARING_CACHE.clear()
    _DEFAULT_WINDOW_CACHE.clear()
