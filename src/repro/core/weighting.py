"""Array-geometry weighting of AoA spectra (Section 2.3.3).

A linear array's bearing estimates are not equally reliable at every angle:
near endfire (bearings close to 0 or 180 degrees, i.e. along the line of the
antennas) the derivative of the inter-element phase with respect to bearing
vanishes, so small phase errors translate into large bearing errors.  The
paper therefore multiplies each spectrum by a windowing function

    W(theta) = 1        if 15 deg < |theta| < 165 deg
             = sin(theta)  otherwise

weighting the spectrum "in proportion to the confidence that we have in the
data".  Section 4.2 credits this weighting with much of ArrayTrack's
improvement over raw spectra.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import as_float_array
from repro.errors import EstimationError
from repro.core.cache import default_window_cache

__all__ = ["geometry_window", "cached_geometry_window"]

#: Bearing (degrees away from the array axis) beyond which the spectrum is
#: considered fully reliable; the paper uses 15 degrees.
DEFAULT_RELIABLE_ANGLE_DEG = 15.0


def geometry_window(angles_deg: np.ndarray,
                    reliable_angle_deg: float = DEFAULT_RELIABLE_ANGLE_DEG) -> np.ndarray:
    """Return the paper's W(theta) window evaluated on ``angles_deg``.

    The window is defined on the linear array's natural range and extended
    to the full circle by mirror symmetry: an angle theta in (180, 360) has
    the same endfire distance as 360 - theta.
    """
    if not 0.0 < reliable_angle_deg < 90.0:
        raise EstimationError(
            f"reliable_angle_deg must be in (0, 90), got {reliable_angle_deg!r}")
    angles = as_float_array(angles_deg) % 360.0
    # Fold onto [0, 180]: the distance from the array axis is symmetric.
    folded = np.where(angles > 180.0, 360.0 - angles, angles)
    window = np.ones_like(folded)
    near_endfire = ((folded < reliable_angle_deg)
                    | (folded > 180.0 - reliable_angle_deg))
    window[near_endfire] = np.abs(np.sin(np.radians(folded[near_endfire])))
    return window


def cached_geometry_window(angles_deg: np.ndarray,
                           reliable_angle_deg: float = DEFAULT_RELIABLE_ANGLE_DEG
                           ) -> np.ndarray:
    """Return the (shared, read-only) W(theta) window for ``angles_deg``.

    The window is a pure function of the angle grid and the reliable-angle
    parameter, so it is served from the shared
    :class:`~repro.core.cache.WindowCache` -- one computation per (grid
    signature, reliable angle) for the lifetime of the process instead of
    one per frame.  Validation runs before the lookup so an invalid
    parameter fails identically whether or not the grid is already cached.
    """
    if not 0.0 < reliable_angle_deg < 90.0:
        raise EstimationError(
            f"reliable_angle_deg must be in (0, 90), got {reliable_angle_deg!r}")
    return default_window_cache().get(
        angles_deg, reliable_angle_deg,
        lambda: geometry_window(angles_deg, reliable_angle_deg))
