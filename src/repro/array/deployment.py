"""Deployed antenna arrays: a geometry placed at a position and orientation.

The :class:`ArrayGeometry` lives in its own local frame; an AP installs it at
a specific position in the building with a specific orientation.  The
:class:`DeployedArray` performs the global/local angle conversion and owns
the per-radio phase offsets of the receiver chains (Section 3: each radio's
2.4 GHz oscillator introduces an unknown phase offset that must be
calibrated out before AoA is possible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.constants import WAVELENGTH_M
from repro.dtypes import as_float_array
from repro.errors import ArrayError
from repro.array.geometry import ArrayGeometry
from repro.geometry.vector import Point2D, bearing_deg, normalize_angle_deg

__all__ = ["DeployedArray"]


@dataclass
class DeployedArray:
    """An antenna array installed at a position/orientation in the building.

    Attributes
    ----------
    geometry:
        The element layout in the array's local frame.
    position:
        Position of the array origin (first element) in building coordinates.
    orientation_deg:
        Rotation of the array's local +x axis relative to the building's +x
        axis, counter-clockwise, in degrees.
    phase_offsets_rad:
        Per-radio oscillator phase offsets (radians).  These corrupt the
        received samples until calibration removes them.
    wavelength_m:
        Carrier wavelength.
    """

    geometry: ArrayGeometry
    position: Point2D = field(default_factory=lambda: Point2D(0.0, 0.0))
    orientation_deg: float = 0.0
    phase_offsets_rad: np.ndarray | None = None
    wavelength_m: float = WAVELENGTH_M

    def __post_init__(self) -> None:
        if self.phase_offsets_rad is None:
            self.phase_offsets_rad = np.zeros(self.geometry.num_elements)
        else:
            offsets = np.asarray(self.phase_offsets_rad, dtype=float)
            if offsets.shape != (self.geometry.num_elements,):
                raise ArrayError(
                    "phase_offsets_rad must have one entry per element, got "
                    f"shape {offsets.shape} for {self.geometry.num_elements} elements")
            self.phase_offsets_rad = offsets
        if self.wavelength_m <= 0:
            raise ArrayError(f"wavelength must be positive, got {self.wavelength_m!r}")

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_elements(self) -> int:
        """Number of antenna elements."""
        return self.geometry.num_elements

    @property
    def phase_offset_factors(self) -> np.ndarray:
        """Complex factors ``exp(j phi_m)`` applied by the radio chains."""
        return np.exp(1j * self.phase_offsets_rad)

    # ------------------------------------------------------------------
    # Angle conversions
    # ------------------------------------------------------------------
    def local_azimuth_deg(self, global_azimuth_deg: float) -> float:
        """Convert a global bearing into the array's local frame."""
        return normalize_angle_deg(global_azimuth_deg - self.orientation_deg)

    def global_azimuth_deg(self, local_azimuth_deg: float) -> float:
        """Convert a local-frame azimuth into a global building bearing."""
        return normalize_angle_deg(local_azimuth_deg + self.orientation_deg)

    def bearing_to(self, point: Point2D) -> float:
        """Return the local-frame azimuth of ``point`` as seen from the array."""
        return self.local_azimuth_deg(bearing_deg(self.position, point))

    # ------------------------------------------------------------------
    # Steering vectors (global-frame convenience wrappers)
    # ------------------------------------------------------------------
    def steering_vector_global(self, global_azimuth_deg: float,
                               elevation_deg: float = 0.0) -> np.ndarray:
        """Return the array response for an arrival given by a *global* bearing."""
        local = self.local_azimuth_deg(global_azimuth_deg)
        return self.geometry.steering_vector(local, elevation_deg, self.wavelength_m)

    # ------------------------------------------------------------------
    # Derived deployments
    # ------------------------------------------------------------------
    def with_subarray(self, indices: Sequence[int]) -> "DeployedArray":
        """Return a deployment using only the elements in ``indices``."""
        indices = list(indices)
        return DeployedArray(
            geometry=self.geometry.subarray(indices),
            position=self.position,
            orientation_deg=self.orientation_deg,
            phase_offsets_rad=np.asarray(self.phase_offsets_rad)[indices].copy(),
            wavelength_m=self.wavelength_m,
        )

    def with_phase_offsets(self, offsets_rad: np.ndarray) -> "DeployedArray":
        """Return a copy with different per-radio phase offsets."""
        return DeployedArray(
            geometry=self.geometry,
            position=self.position,
            orientation_deg=self.orientation_deg,
            phase_offsets_rad=as_float_array(offsets_rad).copy(),
            wavelength_m=self.wavelength_m,
        )

    def calibrated(self, estimated_offsets_rad: np.ndarray) -> "DeployedArray":
        """Return a copy whose offsets are the residual after calibration.

        Subtracting a perfect estimate leaves zero offsets; an imperfect
        estimate leaves small residuals, which is how calibration error can
        be injected in robustness experiments.
        """
        estimated = as_float_array(estimated_offsets_rad)
        if estimated.shape != (self.num_elements,):
            raise ArrayError(
                "estimated offsets must have one entry per element, got "
                f"shape {estimated.shape}")
        residual = np.asarray(self.phase_offsets_rad) - estimated
        return self.with_phase_offsets(residual)

    @staticmethod
    def random_phase_offsets(num_elements: int,
                             rng: np.random.Generator | None = None) -> np.ndarray:
        """Return uniformly random per-radio phase offsets in ``[0, 2 pi)``."""
        rng = rng if rng is not None else np.random.default_rng()
        return rng.uniform(0.0, 2.0 * np.pi, size=num_elements)
