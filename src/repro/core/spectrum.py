"""AoA pseudospectrum container.

An AoA spectrum (Figure 3 of the paper) is "an estimate of the incoming
signal's power as a function of angle of arrival".  ArrayTrack computes one
per overheard frame per AP, post-processes it (weighting, symmetry removal,
multipath suppression) and ships it to the server for synthesis.

The spectrum is stored on a uniform angle grid over the full circle in the
*array's local frame* (0 degrees = along the array axis).  Because the AP
knows its own position and orientation, the spectrum also carries both, so
the server can evaluate the spectrum at the bearing of any candidate
location expressed in building coordinates (Section 2.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from collections.abc import Iterable

import numpy as np
from numpy.typing import ArrayLike

from repro.constants import DEFAULT_ANGLE_RESOLUTION_DEG
from repro.dtypes import as_float_array
from repro.errors import EstimationError
from repro.geometry.vector import Point2D

__all__ = ["AoASpectrum", "circular_interpolation_table", "default_angle_grid"]


def default_angle_grid(resolution_deg: float = DEFAULT_ANGLE_RESOLUTION_DEG,
                       full_circle: bool = True) -> np.ndarray:
    """Return a uniform angle grid in degrees.

    Parameters
    ----------
    resolution_deg:
        Grid step; must divide 180 evenly to keep the mirror operation exact.
    full_circle:
        True for ``[0, 360)``; False for ``[0, 180]`` (a linear array's
        unambiguous range).
    """
    if not resolution_deg > 0:
        raise EstimationError(
            f"angle resolution must be positive, got {resolution_deg!r}")
    steps = 180.0 / resolution_deg
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise EstimationError(
            f"angle resolution must divide 180 evenly, got {resolution_deg!r}")
    # Build both grids on their exact point count.  The previous
    # ``np.arange(0, 180 + res/2, res)`` endpoint construction let float
    # accumulation drop or duplicate the 180-degree seam point for
    # resolutions like 0.3 whose reciprocal is inexact; ``np.linspace``
    # pins both the count and the endpoints, so ``grid[-1]`` is exactly
    # 180.0 (half circle) and 360.0 is exactly excluded (full circle).
    half_points = int(round(180.0 / resolution_deg))
    if full_circle:
        return np.linspace(0.0, 360.0, 2 * half_points, endpoint=False)
    return np.linspace(0.0, 180.0, half_points + 1)


def circular_interpolation_table(grid_angles_deg: np.ndarray,
                                 query_angles_deg: ArrayLike
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return circular-interpolation indices of query angles on a uniform grid.

    The single definition of the circular lookup used by
    :meth:`AoASpectrum.interpolation_table` and by the batched frontend's
    stacked side-power pass: the table depends only on the grids, never on
    the power values, so one table serves every frame sharing a grid.

    Returns ``(lower, upper, fraction)`` such that the interpolated value at
    each query angle is ``(1 - fraction) * values[lower] + fraction *
    values[upper]``.
    """
    grid_angles_deg = as_float_array(grid_angles_deg)
    query = np.atleast_1d(as_float_array(query_angles_deg)) % 360.0
    resolution = float(grid_angles_deg[1] - grid_angles_deg[0])
    positions = query / resolution
    floor_positions = np.floor(positions)
    lower = floor_positions.astype(int) % len(grid_angles_deg)
    upper = (lower + 1) % len(grid_angles_deg)
    fraction = positions - floor_positions
    return lower, upper, fraction


@dataclass
class AoASpectrum:
    """Power versus angle-of-arrival for one frame at one AP.

    Attributes
    ----------
    angles_deg:
        Uniform grid of angles in the array's local frame, covering
        ``[0, 360)`` degrees.
    power:
        Non-negative pseudospectrum values, one per grid angle.
    ap_position:
        The AP's position in building coordinates (None for synthetic
        spectra used in unit tests).
    ap_orientation_deg:
        Rotation of the array's local +x axis in the building frame.
    client_id, ap_id:
        Identifiers of the transmitting client and receiving AP.
    timestamp_s:
        Capture time of the frame the spectrum came from; used to group
        frames for multipath suppression (Section 2.4).
    """

    angles_deg: np.ndarray
    power: np.ndarray
    ap_position: Point2D | None = None
    ap_orientation_deg: float = 0.0
    client_id: str = ""
    ap_id: str = ""
    timestamp_s: float = 0.0

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles_deg, dtype=float)
        power = np.asarray(self.power, dtype=float)
        if power.ndim != 1:
            raise EstimationError(
                "angles and power must be one-dimensional arrays of equal length, "
                f"got {angles.shape} and {power.shape}")
        _check_power(angles, power)
        self.angles_deg = angles
        self.power = power

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def resolution_deg(self) -> float:
        """Grid step in degrees."""
        return float(self.angles_deg[1] - self.angles_deg[0])

    @property
    def max_power(self) -> float:
        """Largest pseudospectrum value."""
        return float(np.max(self.power))

    def normalized(self) -> "AoASpectrum":
        """Return a copy scaled so the maximum value is 1."""
        peak = self.max_power
        if peak <= 0:
            raise EstimationError("cannot normalize an all-zero spectrum")
        return replace(self, power=self.power / peak)

    def copy_with_power(self, power: np.ndarray) -> "AoASpectrum":
        """Return a copy of this spectrum carrying different power values."""
        return replace(self, power=as_float_array(power))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def interpolation_table(self, local_angles_deg: ArrayLike
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return circular-interpolation indices for local-frame angles.

        Returns ``(lower, upper, fraction)`` such that the interpolated
        power at each query angle is ``(1 - fraction) * power[lower] +
        fraction * power[upper]``.  The table depends only on the angle
        grid, not on the power values, so it can be computed once per
        (AP, search grid) and reused across every frame and every client
        observed by that AP -- this is what the batched localizer caches.
        """
        return circular_interpolation_table(self.angles_deg, local_angles_deg)

    def power_at_local(self, local_angles_deg: ArrayLike) -> np.ndarray:
        """Return interpolated power at local-frame angles (degrees).

        Linear interpolation on the circular grid, vectorized over the
        input.
        """
        lower, upper, fraction = self.interpolation_table(local_angles_deg)
        return (1.0 - fraction) * self.power[lower] + fraction * self.power[upper]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "AoASpectrum":
        """Return a copy with all power values multiplied by ``factor``."""
        if factor < 0:
            raise EstimationError("scale factor must be non-negative")
        return replace(self, power=self.power * factor)


def _check_power(angles: np.ndarray, power: np.ndarray) -> None:
    """The :class:`AoASpectrum` invariants, for one spectrum or a stack.

    ``power`` is one spectrum's ``(K,)`` values or an ``(F, K)`` stack of
    them, on the one-dimensional grid ``angles``.
    """
    if angles.ndim != 1 or power.shape[-1:] != angles.shape:
        raise EstimationError(
            "angles and power must be one-dimensional arrays of equal length, "
            f"got {angles.shape} and {power.shape}")
    if angles.shape[0] < 4:
        raise EstimationError("an AoA spectrum needs at least four grid points")
    if np.any(power < 0):
        raise EstimationError("spectrum power values must be non-negative")


def _stacked_spectra(angles_deg: np.ndarray, power: np.ndarray,
                     metadata: Iterable[tuple[Point2D | None, float, str,
                                              str, float]]
                     ) -> list[AoASpectrum]:
    """Wrap the rows of an ``(F, K)`` power stack as spectra on one grid.

    The batched frontend's constructor: the checks of
    :meth:`AoASpectrum.__post_init__` run once over the whole stack, and
    each row (a view into ``power``) then becomes a spectrum without
    running them again.  ``metadata`` gives every row's
    ``(ap_position, ap_orientation_deg, client_id, ap_id, timestamp_s)``.
    """
    angles = as_float_array(angles_deg)
    power = as_float_array(power)
    if power.ndim != 2:
        raise EstimationError(
            f"a spectrum stack must have shape (F, K), got {power.shape}")
    _check_power(angles, power)
    spectra = []
    for row, (position, orientation_deg, client_id, ap_id, timestamp_s) \
            in zip(power, metadata, strict=True):
        spectrum = object.__new__(AoASpectrum)
        vars(spectrum).update(
            angles_deg=angles, power=row, ap_position=position,
            ap_orientation_deg=orientation_deg, client_id=client_id,
            ap_id=ap_id, timestamp_s=timestamp_s)
        spectra.append(spectrum)
    return spectra
