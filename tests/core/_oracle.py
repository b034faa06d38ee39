"""Serial reference implementations of the batched pipeline stages.

``src/`` holds one implementation per pipeline stage, and it is batched.
This module composes two of those stages again, one frame or one client at
a time, from the single-frame primitives (one per paper equation).  The
bit-equality suites in ``tests/core`` and the serial columns of
``benchmarks/`` compare the batched path against it:

* :func:`reference_spectrum` and :func:`reference_spectrum_with_symmetry`
  are the Section 2.3 chain for one frame: covariance with spatial
  smoothing, the configured estimator, mirroring onto the full circle, the
  W(theta) window and, with the ninth antenna, symmetry removal;
  :func:`reference_ap_spectrum` adds the AP's phase-offset compensation;
* :func:`reference_refinement` is the Section 2.5 hill climb for each
  client, seeded from its grid heatmap and scored by a bounds-checked
  :func:`~repro.core.likelihood.likelihood_at`.

Import it as ``tests.core._oracle``: the repo root is on ``sys.path`` for
every pytest run, so ``benchmarks/`` modules can import it too.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace

import numpy as np

from repro.ap import ArrayTrackAP, BufferEntry
from repro.array.deployment import DeployedArray
from repro.array.geometry import ArrayGeometry
from repro.array.receiver import SnapshotMatrix
from repro.core.batch import BatchLocalizer
from repro.core.covariance import sample_covariance
from repro.core.likelihood import likelihood_at
from repro.core.localizer import LocalizerConfig
from repro.core.music import bartlett_spectrum, capon_spectrum, music_spectrum
from repro.core.optimizer import HillClimbResult, refine_from_seeds
from repro.core.pipeline import SpectrumConfig
from repro.core.smoothing import effective_antennas, smoothed_covariance
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.core.symmetry import SymmetryResolver
from repro.core.weighting import apply_geometry_weighting
from repro.geometry.vector import Point2D


def _subarray(array: DeployedArray, indices: Sequence[int]) -> ArrayGeometry:
    indices = list(indices)
    if len(indices) == array.geometry.num_elements:
        return array.geometry
    return array.geometry.subarray(indices)


def reference_half_spectrum(config: SpectrumConfig,
                            linear_samples: np.ndarray,
                            geometry: ArrayGeometry,
                            wavelength_m: float) -> np.ndarray:
    """Pseudospectrum of one frame on the linear array's [0, 180] range."""
    angles = default_angle_grid(config.angle_resolution_deg, full_circle=False)
    if config.smoothing_groups > 1:
        sub_size = effective_antennas(linear_samples.shape[0],
                                      config.smoothing_groups)
        covariance = smoothed_covariance(
            linear_samples, config.smoothing_groups,
            forward_backward=config.forward_backward)
        sub_geometry = geometry.subarray(list(range(sub_size)))
    else:
        covariance = sample_covariance(linear_samples)
        sub_geometry = geometry
    if config.method == "music":
        return music_spectrum(covariance, sub_geometry, angles,
                              num_sources=config.num_sources,
                              wavelength_m=wavelength_m,
                              elevation_deg=config.elevation_deg)
    if config.method == "bartlett":
        return bartlett_spectrum(covariance, sub_geometry, angles,
                                 wavelength_m, config.elevation_deg)
    return capon_spectrum(covariance, sub_geometry, angles,
                          wavelength_m, config.elevation_deg)


def reference_spectrum(config: SpectrumConfig, snapshots: SnapshotMatrix,
                       array: DeployedArray,
                       linear_indices: Sequence[int] | None = None
                       ) -> AoASpectrum:
    """Section 2.3 spectrum of one frame, mirrored and optionally weighted."""
    if linear_indices is None:
        linear_indices = range(snapshots.samples.shape[0])
    linear_indices = list(linear_indices)
    half_power = reference_half_spectrum(
        config, snapshots.samples[linear_indices, :],
        _subarray(array, linear_indices), array.wavelength_m)
    spectrum = AoASpectrum.from_half_spectrum(
        default_angle_grid(config.angle_resolution_deg, full_circle=False),
        half_power,
        ap_position=array.position,
        ap_orientation_deg=array.orientation_deg,
        client_id=snapshots.client_id,
        ap_id=snapshots.ap_id,
        timestamp_s=snapshots.timestamp_s)
    if config.apply_weighting:
        spectrum = apply_geometry_weighting(spectrum)
    return spectrum


def reference_spectrum_with_symmetry(config: SpectrumConfig,
                                     snapshots: SnapshotMatrix,
                                     array: DeployedArray,
                                     linear_indices: Sequence[int],
                                     full_indices: Sequence[int] | None = None
                                     ) -> AoASpectrum:
    """:func:`reference_spectrum` with the Section 2.3.4 mirror resolved."""
    spectrum = reference_spectrum(config, snapshots, array, linear_indices)
    if full_indices is None:
        full_indices = range(snapshots.samples.shape[0])
    full_indices = list(full_indices)
    resolver = SymmetryResolver(_subarray(array, full_indices),
                                array.wavelength_m)
    return resolver.resolve(spectrum, snapshots.samples[full_indices, :],
                            attenuation=config.symmetry_attenuation)


def reference_ap_spectrum(ap: ArrayTrackAP, entry: BufferEntry) -> AoASpectrum:
    """The spectrum ``ap`` should produce for one buffered frame."""
    snapshots = ap._compensate(entry.snapshots)
    if ap.config.use_symmetry_antenna:
        return reference_spectrum_with_symmetry(
            ap.config.spectrum, snapshots, ap.array, ap.linear_indices)
    return reference_spectrum(ap.config.spectrum, snapshots, ap.array,
                              ap.linear_indices)


def reference_refinement(bounds: tuple[float, float, float, float],
                         config: LocalizerConfig,
                         spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                         ) -> dict[str, HillClimbResult]:
    """Section 2.5 hill climb of each client, one likelihood call per point.

    Seeds are the ``num_seeds`` best cells of the client's grid heatmap;
    the climb scores candidates with ``likelihood_at`` on the (optionally
    normalized) spectra and rates points outside ``bounds`` 0.0.
    """
    grid = BatchLocalizer(bounds, replace(config, keep_heatmap=True,
                                          refine_with_hill_climbing=False))
    grid_estimates = grid.estimate_batch(spectra_by_client)
    xmin, ymin, xmax, ymax = bounds
    results: dict[str, HillClimbResult] = {}
    for key, spectra in spectra_by_client.items():
        scored = [spectrum.normalized() for spectrum in spectra] \
            if config.normalize_spectra else list(spectra)

        def objective(position: Point2D,
                      scored: list[AoASpectrum] = scored) -> float:
            if not (xmin <= position.x <= xmax and ymin <= position.y <= ymax):
                return 0.0
            return likelihood_at(scored, position, floor=config.spectrum_floor)

        heatmap = grid_estimates[key].heatmap
        assert heatmap is not None
        results[key] = refine_from_seeds(
            objective, heatmap.top_positions(config.num_seeds),
            initial_step_m=config.grid_resolution_m / 2.0,
            min_step_m=config.grid_resolution_m / 20.0)
    return results
