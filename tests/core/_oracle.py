"""Serial reference implementations of the batched pipeline stages.

``src/`` holds one implementation per pipeline stage, batched or array-based.
This module composes three of those stages again, one frame, one client or
one grid point at a time, from the single-frame primitives (one per paper
equation).  The
bit-equality suites in ``tests/core`` and the serial columns of
``benchmarks/`` compare the batched path against it:

* :func:`reference_spectrum` and :func:`reference_spectrum_with_symmetry`
  are the Section 2.3 chain for one frame: covariance with spatial
  smoothing, the configured estimator, mirroring onto the full circle, the
  W(theta) window and, with the ninth antenna, symmetry removal;
  :func:`reference_ap_spectrum` adds the AP's phase-offset compensation;
* :func:`reference_seeds` is the Section 2.5 seed rule over a client's
  full Equation 8 grid (:func:`~repro.core.likelihood.synthesize_likelihood`):
  one full sort, then the greedy three-cell separation rule;
  :func:`reference_refinement` is the hill climb for each client from
  those seeds, scored by a bounds-checked
  :func:`~repro.core.likelihood.likelihood_at`;
* :func:`reference_find_peaks` and :func:`reference_peak_regions` are the
  Section 2.4 peak detection and lobe walk one grid point at a time, and
  :func:`reference_suppress` composes the Figure 8 algorithm from them;
  :func:`roaming_groups` captures the streaming input they are checked on.

Import it as ``tests.core._oracle``: the repo root is on ``sys.path`` for
every pytest run, so ``benchmarks/`` modules can import it too.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.ap import ArrayTrackAP, BufferEntry
from repro.array.deployment import DeployedArray
from repro.array.geometry import ArrayGeometry
from repro.array.receiver import SnapshotMatrix
from repro.channel import movement_track, random_waypoint_track
from repro.core.covariance import sample_covariance
from repro.core.likelihood import (LikelihoodMap, likelihood_at,
                                   synthesize_likelihood)
from repro.core.localizer import LocalizerConfig
from repro.core.music import bartlett_spectrum, capon_spectrum, music_spectrum
from repro.core.optimizer import HillClimbResult, refine_from_seeds
from repro.core.peaks import SpectrumPeak, match_peak
from repro.core.pipeline import SpectrumConfig
from repro.core.smoothing import effective_antennas, smoothed_covariance
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.core.suppression import MultipathSuppressor
from repro.core.symmetry import SymmetryResolver
from repro.core.weighting import apply_geometry_weighting
from repro.geometry.vector import Point2D
from repro.testbed import (ScenarioConfig, SimulatedDeployment,
                           build_office_testbed)


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


def reference_seeds(heatmap: LikelihoodMap,
                    count: int) -> list[tuple[Point2D, float]]:
    """The ``count`` Section 2.5 seeds of a full grid map, by full sort.

    Cells are ranked by ``(-value, flat index)`` -- exact ties go to the
    lowest flat index, like ``np.argmax`` -- and taken greedily unless
    within three grid cells of an earlier seed.
    """
    values = heatmap.values.ravel()
    num_x = heatmap.x_coords.shape[0]
    separation = 3.0 * heatmap.resolution_m
    seeds: list[tuple[Point2D, float]] = []
    for cell in np.lexsort((np.arange(values.shape[0]), -values)).tolist():
        candidate = Point2D(float(heatmap.x_coords[cell % num_x]),
                            float(heatmap.y_coords[cell // num_x]))
        if any(candidate.distance_to(seed) < separation for seed, _ in seeds):
            continue
        seeds.append((candidate, float(values[cell])))
        if len(seeds) == count:
            break
    return seeds


def reference_refinement(bounds: tuple[float, float, float, float],
                         config: LocalizerConfig,
                         spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                         ) -> dict[str, HillClimbResult]:
    """Section 2.5 hill climb of each client, one likelihood call per point.

    Seeds are :func:`reference_seeds` of the client's full grid heatmap;
    the climb scores candidates with ``likelihood_at`` on the (optionally
    normalized) spectra and rates points outside ``bounds`` 0.0.
    """
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

        heatmap = synthesize_likelihood(
            spectra, bounds, config.grid_resolution_m,
            normalize_spectra=config.normalize_spectra,
            floor=config.spectrum_floor)
        results[key] = refine_from_seeds(
            objective, reference_seeds(heatmap, config.num_seeds),
            initial_step_m=config.grid_resolution_m / 2.0,
            min_step_m=config.grid_resolution_m / 20.0)
    return results


def reference_find_peaks(spectrum: AoASpectrum,
                         min_relative_height: float = 0.05,
                         min_relative_prominence: float = 0.02,
                         max_peaks: int | None = None) -> list[SpectrumPeak]:
    """Local maxima of ``spectrum``, strongest first, one grid point at a time."""
    power = spectrum.power
    n = power.shape[0]
    peak_value = float(np.max(power))
    if peak_value <= 0:
        return []
    height_floor = min_relative_height * peak_value
    prominence_floor = min_relative_prominence * peak_value
    peaks: list[SpectrumPeak] = []
    for i in range(n):
        left = power[(i - 1) % n]
        right = power[(i + 1) % n]
        value = power[i]
        if value < height_floor:
            continue
        # A circular local maximum (plateaus resolved towards the left edge).
        if value > left and value >= right:
            prominence = _circular_prominence(power, i)
            if prominence < prominence_floor:
                continue
            peaks.append(SpectrumPeak(
                angle_deg=float(spectrum.angles_deg[i]),
                power=float(value),
                prominence=float(prominence),
                index=i,
            ))
    peaks.sort(key=lambda p: p.power, reverse=True)
    if max_peaks is not None:
        peaks = peaks[:max_peaks]
    return peaks


def _circular_prominence(power: np.ndarray, peak_index: int) -> float:
    """Prominence of the peak at ``peak_index`` on a circular grid."""
    n = power.shape[0]
    peak_value = power[peak_index]
    # Walk left and right until a value higher than the peak is met (or the
    # whole circle has been traversed); track the minimum along the way.
    left_min = peak_value
    for step in range(1, n):
        value = power[(peak_index - step) % n]
        if value > peak_value:
            break
        left_min = min(left_min, value)
    right_min = peak_value
    for step in range(1, n):
        value = power[(peak_index + step) % n]
        if value > peak_value:
            break
        right_min = min(right_min, value)
    return float(peak_value - max(left_min, right_min))


def reference_peak_regions(spectrum: AoASpectrum, peak: SpectrumPeak,
                           valley_fraction: float = 0.5) -> np.ndarray:
    """Boolean mask of ``peak``'s lobe, walked one grid point at a time."""
    power = spectrum.power
    n = power.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[peak.index] = True
    floor = valley_fraction * peak.power
    previous = power[peak.index]
    for step in range(1, n):
        index = (peak.index + step) % n
        value = power[index]
        if value > previous or value < floor:
            break
        mask[index] = True
        previous = value
    previous = power[peak.index]
    for step in range(1, n):
        index = (peak.index - step) % n
        value = power[index]
        if value > previous or value < floor:
            break
        mask[index] = True
        previous = value
    return mask


def reference_suppress(suppressor: MultipathSuppressor,
                       group: Sequence[AoASpectrum],
                       primary_index: int = 0) -> AoASpectrum:
    """Figure 8 on one group, from the reference peak detection and lobes."""
    primary = group[primary_index]
    companions = [s for i, s in enumerate(group) if i != primary_index]
    if not companions:
        return primary
    height = suppressor.min_relative_height
    companion_peaks = [reference_find_peaks(s, height) for s in companions]
    stable: list[SpectrumPeak] = []
    unstable: list[SpectrumPeak] = []
    for peak in reference_find_peaks(primary, height):
        matched = all(match_peak(peak, peaks, suppressor.tolerance_deg)
                      is not None for peaks in companion_peaks)
        (stable if matched else unstable).append(peak)
    protected = np.zeros(primary.power.shape[0], dtype=bool)
    for peak in stable:
        protected |= reference_peak_regions(primary, peak)
    power = primary.power.copy()
    for peak in unstable:
        power[reference_peak_regions(primary, peak) & ~protected] *= \
            suppressor.residual_fraction
    return primary.copy_with_power(power)


def roaming_groups(num_clients: int, num_steps: int, frames_per_burst: int = 3,
                   seed: int = 1) -> list[list[AoASpectrum]]:
    """Suppression groups of a roaming capture in the office testbed.

    Each client walks a corridor lane and, at every step, sends a burst of
    ``frames_per_burst`` frames a few centimetres apart that all six APs
    overhear at the deployment's default SNR -- the streaming workload the
    Section 2.4 stage sees.  Returns one group (the burst's spectra at one
    AP) per step, client and AP.
    """
    testbed = build_office_testbed()
    deployment = SimulatedDeployment(testbed, ScenarioConfig(
        frames_per_client=frames_per_burst, seed=seed))
    walk_rng = np.random.default_rng(seed)
    lanes = (9.5, 5.0, 13.0)
    tracks = {
        f"roamer-{index}": random_waypoint_track(
            Point2D(5.0 + 1.5 * index, lanes[index % len(lanes)]),
            Point2D(36.0 - 1.5 * index, lanes[index % len(lanes)]),
            num_samples=num_steps)
        for index in range(num_clients)
    }
    groups: list[list[AoASpectrum]] = []
    for step in range(num_steps):
        for client_id, track in tracks.items():
            burst = movement_track(track[step], frames_per_burst,
                                   max_step_m=0.05, rng=walk_rng)
            deployment.capture_client(client_id, positions=burst,
                                      start_time_s=0.5 * step)
            groups.extend(deployment.spectra_for_client(client_id).values())
        deployment.clear()
    return groups
