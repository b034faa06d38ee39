"""Array symmetry removal using a ninth, off-row antenna (Section 2.3.4).

A linear array only measures ``cos(theta)``, so its AoA spectrum on
``[0, 180]`` degrees is mirrored onto ``(180, 360)``: the array cannot tell
which side a signal arrived from.  With many cooperating APs the server's
likelihood synthesis washes the ghost side out, but with few APs the ghost
produces false-positive locations (Section 4.2).

ArrayTrack resolves the ambiguity with a ninth antenna placed off the array's
row (recorded through diversity synthesis): using all nine antennas it
"calculates the total power on each side, and removes the half with less
power".  Here the nine-antenna Bartlett beamformer provides that per-side
power comparison -- the non-collinear geometry breaks the mirror symmetry, so
integrating its response over each half plane reveals the true side.

The side-power test has one body, :meth:`SymmetryResolver.side_powers_stack`
over an ``(F, M, N)`` snapshot stack; the batched frontend
(:meth:`~repro.core.pipeline.SpectrumComputer.compute_many_with_symmetry_stacked`)
calls it with its mirrored power stack and scales each frame's weaker half
plane in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dtypes import as_complex_array, as_float_array
from repro.errors import EstimationError
from repro.array.geometry import ArrayGeometry
from repro.core.covariance import sample_covariance_many
from repro.core.music import bartlett_spectrum_many
from repro.core.spectrum import circular_interpolation_table, default_angle_grid

__all__ = ["SymmetryResolver"]


@dataclass
class SymmetryResolver:
    """Decides which half plane of a mirrored spectrum holds the true arrivals.

    Parameters
    ----------
    geometry:
        The full non-collinear geometry (e.g. eight-element ULA plus the
        ninth symmetry antenna) matching the snapshot rows it will be given.
    wavelength_m:
        Carrier wavelength.
    angle_resolution_deg:
        Resolution of the internal Bartlett scan.
    """

    geometry: ArrayGeometry
    wavelength_m: float
    angle_resolution_deg: float = 2.0

    def __post_init__(self) -> None:
        if self.geometry.is_linear():
            raise EstimationError(
                "symmetry resolution requires a non-collinear geometry; add an "
                "off-row antenna (Section 2.3.4)")

    def side_powers_stack(self, snapshots: np.ndarray,
                          spectrum_power: np.ndarray | None,
                          spectrum_angles: np.ndarray | None
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Return per-frame upper/lower half-plane Bartlett powers of a stack.

        One stacked covariance pass and one stacked Bartlett evaluation
        cover all ``F`` frames, and the optional spectrum weighting reuses
        a single circular-interpolation table (all frames share one
        spectrum angle grid).

        Parameters
        ----------
        snapshots:
            ``(F, M, N)`` snapshot stack on the resolver's geometry.
        spectrum_power:
            Optional ``(F, K)`` stack of the frames' mirrored spectrum
            values on ``spectrum_angles``.  When given, each frame's
            Bartlett response is weighted by its spectrum (scaled to unit
            peak) before integrating each half plane, so the comparison
            concentrates on the bearings where MUSIC actually sees
            arrivals instead of being diluted by side-lobe energy.
        spectrum_angles:
            The shared angle grid of ``spectrum_power``.
        """
        snapshots = as_complex_array(snapshots)
        if snapshots.ndim != 3:
            raise EstimationError(
                f"snapshot stack must have shape (F, M, N), "
                f"got {snapshots.shape}")
        if snapshots.shape[1] != self.geometry.num_elements:
            raise EstimationError(
                f"snapshots have {snapshots.shape[1]} rows but the geometry "
                f"has {self.geometry.num_elements} elements")
        covariances = sample_covariance_many(snapshots)
        angles = default_angle_grid(self.angle_resolution_deg, full_circle=True)
        power = bartlett_spectrum_many(covariances, self.geometry, angles,
                                       self.wavelength_m)
        if spectrum_power is not None:
            spectrum_power = as_float_array(spectrum_power)
            if spectrum_power.shape[0] != snapshots.shape[0]:
                raise EstimationError(
                    f"got {spectrum_power.shape[0]} spectra for "
                    f"{snapshots.shape[0]} frames")
            # One interpolation table serves every frame: the table depends
            # only on the (shared) spectrum grid and the Bartlett scan grid.
            lower, upper, fraction = circular_interpolation_table(
                spectrum_angles, angles)
            weights = (1.0 - fraction) * spectrum_power[:, lower] \
                + fraction * spectrum_power[:, upper]
            peaks = np.max(weights, axis=1)
            positive = peaks > 0
            if np.any(positive):
                power[positive] = power[positive] \
                    * (weights[positive] / peaks[positive, None])
        upper_mask = angles < 180.0
        upper_power = np.sum(power[:, upper_mask], axis=1)
        lower_power = np.sum(power[:, ~upper_mask], axis=1)
        return upper_power, lower_power
