"""Per-AP AoA spectrum computation pipeline (snapshots in, spectrum out).

This module wires the Section 2.3 steps together: sample covariance with
spatial smoothing (2.3.2), the MUSIC pseudospectrum (2.3.1), mirroring of the
linear array's 180-degree spectrum onto the full circle, array-geometry
weighting (2.3.3), and -- when a nine-antenna capture is available --
array-symmetry removal (2.3.4).  Multipath suppression (2.4) operates across
frames and therefore lives one level up, in the server.

The frontend is the paper's: forward-only spatial smoothing, an
automatically chosen source count and arrivals in the array's horizontal
plane (Appendix A bounds the AP/client height error instead of
compensating for it).  The ``method`` knob also exposes the Bartlett and
Capon estimators so the ablation benchmark can swap the spectrum estimator
while keeping everything else fixed.

The frontend is batched: :meth:`SpectrumComputer.compute_many` (and
:meth:`SpectrumComputer.compute_many_with_symmetry`) take all of a capture
batch's calibrated snapshot matrices at once and run every Section 2.3 stage
in stacked NumPy passes -- one stacked covariance/smoothing pass, one stacked
``np.linalg.eigh``, the vectorized source-count rule, one noise-projection
GEMM per (geometry, D) frame group, vectorized mirroring, the cached
W(theta) window and a stacked Bartlett side-power pass for symmetry removal.
The single-frame :meth:`SpectrumComputer.compute` and
:meth:`SpectrumComputer.compute_with_symmetry` are batches of one through
the same path, so each stage has exactly one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.constants import (
    DEFAULT_ANGLE_RESOLUTION_DEG,
    DEFAULT_SMOOTHING_GROUPS,
)
from repro.dtypes import as_complex_array
from repro.errors import EstimationError
from repro.array.deployment import DeployedArray
from repro.array.geometry import ArrayGeometry
from repro.array.receiver import SnapshotMatrix
from repro.core.covariance import sample_covariance_many
from repro.core.music import (
    bartlett_spectrum_many,
    capon_spectrum_many,
    music_spectrum_many,
)
from repro.core.smoothing import effective_antennas, smoothed_covariance_many
from repro.core.spectrum import (AoASpectrum, _stacked_spectra,
                                 default_angle_grid)
from repro.core.symmetry import SymmetryResolver
from repro.core.weighting import cached_geometry_window

__all__ = ["SpectrumConfig", "SpectrumComputer"]

_VALID_METHODS = ("music", "bartlett", "capon")

#: Residual scale applied to the rejected half plane during array symmetry
#: removal (Section 2.3.4).  A small non-zero value keeps an occasional
#: wrong side decision from zeroing the true bearing out of the likelihood
#: product entirely.
SYMMETRY_ATTENUATION = 0.1


@dataclass
class SpectrumConfig:
    """Configuration of the per-AP spectrum computation.

    Attributes
    ----------
    smoothing_groups:
        Number of spatial-smoothing sub-arrays ``NG`` (the paper settles on
        2; 1 disables smoothing).
    angle_resolution_deg:
        Angle grid step of the output spectrum.
    apply_weighting:
        Apply the array-geometry window W(theta) of Section 2.3.3.
    method:
        Spectrum estimator: "music" (the paper), "bartlett" or "capon".
    """

    smoothing_groups: int = DEFAULT_SMOOTHING_GROUPS
    angle_resolution_deg: float = DEFAULT_ANGLE_RESOLUTION_DEG
    apply_weighting: bool = True
    method: str = "music"

    def __post_init__(self) -> None:
        if self.smoothing_groups < 1:
            raise EstimationError("smoothing_groups must be >= 1")
        if self.method not in _VALID_METHODS:
            raise EstimationError(
                f"unknown spectrum method {self.method!r}; valid: {_VALID_METHODS}")
        # Checked here so a bad config fails at load time rather than at
        # the first AP build or the first frame.
        default_angle_grid(self.angle_resolution_deg, full_circle=False)


class SpectrumComputer:
    """Computes a full-circle AoA spectrum from one frame's snapshots.

    Parameters
    ----------
    config:
        Pipeline configuration; a default (paper-faithful) configuration is
        used when omitted.
    """

    def __init__(self, config: SpectrumConfig | None = None) -> None:
        self.config = config if config is not None else SpectrumConfig()

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def compute(self, snapshots: SnapshotMatrix, array: DeployedArray,
                linear_indices: Sequence[int] | None = None) -> AoASpectrum:
        """Return the AoA spectrum for one frame captured by ``array``.

        Parameters
        ----------
        snapshots:
            Calibrated snapshot matrix (per-radio phase offsets already
            compensated by the AP).
        array:
            The deployed array the snapshots were captured on; its first
            (or ``linear_indices``-selected) elements must form the uniform
            linear row used for MUSIC.
        linear_indices:
            Rows of the snapshot matrix forming the uniform linear array.
            Defaults to all rows, which is correct for a plain ULA capture;
            pass the ULA subset explicitly when the capture includes the
            ninth symmetry antenna.

        A batch of one through :meth:`compute_many`.
        """
        return self.compute_many([snapshots], array, linear_indices)[0]

    def compute_many(self, snapshots_list: Sequence[SnapshotMatrix],
                     array: DeployedArray,
                     linear_indices: Sequence[int] | None = None
                     ) -> list[AoASpectrum]:
        """Return the AoA spectra of many frames in stacked NumPy passes.

        The batched counterpart of :meth:`compute` and the entry point of
        the vectorized Section 2.3 frontend: the frames' calibrated
        snapshot matrices are stacked into one ``(F, M, N)`` array and all
        per-frame numerics -- covariance/smoothing, eigendecomposition,
        source counting, the Equation 6 noise projection (one GEMM per
        source-count group), mirroring and the W(theta) window -- run once
        over the whole stack.  Each frame's spectrum is independent of the
        others in the batch.

        Parameters
        ----------
        snapshots_list:
            Calibrated snapshot matrices, one per frame; all frames must
            share the same ``(M, N)`` snapshot shape (group mixed captures
            by shape before calling).
        array:
            The deployed array the frames were captured on.
        linear_indices:
            Rows forming the uniform linear array, as in :meth:`compute`.
        """
        snapshots_list = list(snapshots_list)
        if not snapshots_list:
            return []
        return self.compute_many_stacked(self._stack_samples(snapshots_list),
                                         snapshots_list, array, linear_indices)

    def compute_many_stacked(self, stack: np.ndarray,
                             frames: Sequence[SnapshotMatrix],
                             array: DeployedArray,
                             linear_indices: Sequence[int] | None = None,
                             frame_arrays: Sequence[DeployedArray] | None = None
                             ) -> list[AoASpectrum]:
        """Raw-stack variant of :meth:`compute_many`.

        Callers that already hold the calibrated ``(F, M, N)`` sample stack
        skip the per-frame re-stacking; ``frames`` only supplies each
        spectrum's metadata (client id, AP id, timestamp).

        ``frame_arrays`` lets one stack span several APs: it gives every
        frame's own deployed array, whose position and orientation its
        spectrum carries.  Those arrays must share ``array``'s geometry
        and wavelength, which alone drive the numerics.  When omitted,
        every frame was captured on ``array``.
        """
        stack, frames = self._check_stack(stack, frames)
        if not frames:
            return []
        full_angles, full_power = self._full_power_stack(stack, array,
                                                         linear_indices)
        return self._build_spectra(frames, array, frame_arrays, full_angles,
                                   full_power)

    def compute_many_with_symmetry(self, snapshots_list: Sequence[SnapshotMatrix],
                                   array: DeployedArray,
                                   linear_indices: Sequence[int],
                                   full_indices: Sequence[int] | None = None
                                   ) -> list[AoASpectrum]:
        """Batched :meth:`compute_with_symmetry` over many frames.

        Computes the mirrored spectra as :meth:`compute_many` does, then
        resolves every frame's mirror ambiguity in one stacked Bartlett
        side-power pass (Section 2.3.4).
        """
        snapshots_list = list(snapshots_list)
        if not snapshots_list:
            return []
        return self.compute_many_with_symmetry_stacked(
            self._stack_samples(snapshots_list), snapshots_list, array,
            linear_indices, full_indices)

    def compute_many_with_symmetry_stacked(
            self, stack: np.ndarray, frames: Sequence[SnapshotMatrix],
            array: DeployedArray, linear_indices: Sequence[int],
            full_indices: Sequence[int] | None = None,
            frame_arrays: Sequence[DeployedArray] | None = None
            ) -> list[AoASpectrum]:
        """Raw-stack variant of :meth:`compute_many_with_symmetry`.

        See :meth:`compute_many_stacked` for the contract, ``frame_arrays``
        included; the Section 2.3.4 suppression is applied vectorized on
        the power stack before the output objects are built.
        """
        stack, frames = self._check_stack(stack, frames)
        if not frames:
            return []
        full_angles, full_power = self._full_power_stack(stack, array,
                                                         linear_indices)
        if full_indices is None:
            full_indices = list(range(stack.shape[1]))
        else:
            full_indices = list(full_indices)
        full_geometry = array.geometry.subarray(full_indices) \
            if len(full_indices) != array.geometry.num_elements \
            else array.geometry
        resolver = SymmetryResolver(full_geometry, array.wavelength_m)
        upper, lower = resolver.side_powers_stack(stack[:, full_indices, :],
                                                  full_power, full_angles)
        # Vectorized Section 2.3.4 suppression: scale each frame's weaker
        # half plane in place on the power stack, then build the output
        # objects once.
        suppress_lower = upper >= lower
        mask_lower = full_angles >= 180.0
        rows_lower = np.nonzero(suppress_lower)[0]
        rows_upper = np.nonzero(~suppress_lower)[0]
        if rows_lower.size:
            full_power[np.ix_(rows_lower, mask_lower)] *= SYMMETRY_ATTENUATION
        if rows_upper.size:
            full_power[np.ix_(rows_upper, ~mask_lower)] *= SYMMETRY_ATTENUATION
        return self._build_spectra(frames, array, frame_arrays, full_angles,
                                   full_power)

    def compute_with_symmetry(self, snapshots: SnapshotMatrix,
                              array: DeployedArray,
                              linear_indices: Sequence[int],
                              full_indices: Sequence[int] | None = None
                              ) -> AoASpectrum:
        """Compute a spectrum and resolve its mirror ambiguity (Section 2.3.4).

        ``linear_indices`` select the ULA row used for MUSIC; the remaining
        rows (or ``full_indices``) provide the off-row antenna(s) used by
        the Bartlett side-power comparison.  A batch of one through
        :meth:`compute_many_with_symmetry`.
        """
        return self.compute_many_with_symmetry(
            [snapshots], array, linear_indices, full_indices)[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _check_stack(stack: np.ndarray, frames: Sequence[SnapshotMatrix]
                     ) -> tuple:
        """Validate a raw sample stack against its frame descriptors."""
        stack = as_complex_array(stack)
        if stack.ndim != 3:
            raise EstimationError(
                f"sample stack must have shape (F, M, N), got {stack.shape}")
        frames = list(frames)
        if len(frames) != stack.shape[0]:
            raise EstimationError(
                f"got {len(frames)} frame descriptors for "
                f"{stack.shape[0]} stacked frames")
        return stack, frames

    @staticmethod
    def _stack_samples(snapshots_list: Sequence[SnapshotMatrix]) -> np.ndarray:
        """Stack the frames' samples into one ``(F, M, N)`` array."""
        shapes = {snapshots.samples.shape for snapshots in snapshots_list}
        if len(shapes) != 1:
            raise EstimationError(
                f"all frames of one batch must share the snapshot matrix "
                f"shape; got {sorted(shapes)} -- group frames by shape "
                f"before batching")
        return np.stack([snapshots.samples for snapshots in snapshots_list])

    def _full_power_stack(self, stack: np.ndarray, array: DeployedArray,
                          linear_indices: Sequence[int] | None
                          ) -> tuple:
        """Run the stacked Section 2.3 stages up to the weighted full circle.

        Returns ``(full_angles, full_power)`` where ``full_power`` is the
        ``(F, K)`` stack of mirrored (and, if configured, W(theta)-weighted)
        spectra -- the common front half of :meth:`compute_many` and
        :meth:`compute_many_with_symmetry`.
        """
        if linear_indices is None:
            linear_indices = list(range(stack.shape[1]))
        else:
            linear_indices = list(linear_indices)
        if len(linear_indices) < 2:
            raise EstimationError("need at least two linear-array antennas")
        linear_stack = stack[:, linear_indices, :]
        linear_geometry = array.geometry.subarray(linear_indices) \
            if len(linear_indices) != array.geometry.num_elements \
            else array.geometry
        if not linear_geometry.is_linear():
            raise EstimationError(
                "the selected antennas do not form a linear array; pass "
                "linear_indices selecting the ULA row")
        half_power = self._half_spectra_stack(linear_stack, linear_geometry,
                                              array.wavelength_m)
        half_points = half_power.shape[1]
        full_angles = np.linspace(0.0, 360.0, 2 * (half_points - 1),
                                  endpoint=False)
        full_power = np.zeros((stack.shape[0], full_angles.shape[0]))
        full_power[:, :half_points] = half_power
        # Vectorized half-circle mirroring: P(360 - theta) = P(theta).
        full_power[:, half_points:] = half_power[:, 1:-1][:, ::-1]
        if self.config.apply_weighting:
            window = cached_geometry_window(full_angles)
            full_power = full_power * window[None, :]
        return full_angles, full_power

    @staticmethod
    def _build_spectra(snapshots_list: Sequence[SnapshotMatrix],
                       array: DeployedArray,
                       frame_arrays: Sequence[DeployedArray] | None,
                       full_angles: np.ndarray,
                       full_power: np.ndarray) -> list[AoASpectrum]:
        """Wrap the finished power stack into per-frame spectrum objects.

        The stack is validated once, not row by row.
        """
        if frame_arrays is None:
            frame_arrays = [array] * len(snapshots_list)
        return _stacked_spectra(
            full_angles, full_power,
            [(placed.position, placed.orientation_deg, snapshots.client_id,
              snapshots.ap_id, snapshots.timestamp_s)
             for placed, snapshots in zip(frame_arrays, snapshots_list,
                                          strict=True)])

    def _half_spectra_stack(self, linear_stack: np.ndarray,
                            geometry: ArrayGeometry,
                            wavelength_m: float) -> np.ndarray:
        """Return the ``(F, K)`` pseudospectra stack on the [0, 180] range.

        Each covariance variant and each estimator runs one NumPy pass
        over the whole frame stack.
        """
        config = self.config
        angles = default_angle_grid(config.angle_resolution_deg, full_circle=False)
        num_antennas = linear_stack.shape[1]
        if config.smoothing_groups > 1:
            sub_size = effective_antennas(num_antennas, config.smoothing_groups)
            covariances = smoothed_covariance_many(linear_stack,
                                                   config.smoothing_groups)
            sub_geometry = geometry.subarray(list(range(sub_size)))
        else:
            covariances = sample_covariance_many(linear_stack)
            sub_geometry = geometry
        if config.method == "music":
            return music_spectrum_many(covariances, sub_geometry, angles,
                                       wavelength_m=wavelength_m)
        if config.method == "bartlett":
            return bartlett_spectrum_many(covariances, sub_geometry, angles,
                                          wavelength_m)
        return capon_spectrum_many(covariances, sub_geometry, angles,
                                   wavelength_m)
