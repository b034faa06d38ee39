"""Serial reference implementations of the batched pipeline stages.

``src/`` holds one implementation per pipeline stage, batched or array-based.
This module holds the serial references the bit-equality suites in
``tests/core`` and the serial columns of ``benchmarks/`` check it against,
one frame, one client or one grid point at a time:

* the Section 2.3 primitives, one frame each: :func:`sample_covariance`,
  :func:`forward_backward_covariance`, :func:`smoothed_covariance`,
  :func:`decompose`, :func:`spectrum_from_noise_subspace`, the
  :func:`music_spectrum`, :func:`bartlett_spectrum` and
  :func:`capon_spectrum` estimators, and the symmetry test's
  :func:`side_powers` and :func:`resolve`.  In ``src/`` each of the
  estimator and covariance names is a batch of one through its stacked
  ``*_many`` form, and the side-power test is
  :meth:`~repro.core.symmetry.SymmetryResolver.side_powers_stack`; here
  each is its own serial body;
* :func:`mirror_half_spectrum`, :func:`apply_geometry_weighting` and
  :func:`suppress_half_plane` are the per-spectrum mirror, W(theta) window
  and half-plane removal that ``src/`` runs only on the stacked power
  array of :class:`~repro.core.pipeline.SpectrumComputer`;
* :func:`reference_spectrum` and :func:`reference_spectrum_with_symmetry`
  compose those primitives into the Section 2.3 chain for one frame:
  covariance with spatial smoothing, the configured estimator, mirroring
  onto the full circle, the W(theta) window and, with the ninth antenna,
  symmetry removal; :func:`reference_ap_spectrum` adds the AP's
  phase-offset compensation;
* Equation 8 one AP and one point at a time: :func:`power_towards` reads
  a spectrum at the bearing of a point, :func:`likelihood_at` multiplies
  those readings, and :func:`synthesize_likelihood` folds every grid cell
  AP by AP.  In ``src/`` the one Equation 8 is the stacked objective of
  :class:`~repro.core.batch.BatchLocalizer`, which serves seeds, fixes,
  refinement and :meth:`~repro.core.batch.BatchLocalizer.heatmaps`;
* :func:`reference_seeds` is the Section 2.5 seed rule over a client's
  full Equation 8 grid (:func:`synthesize_likelihood`): one full sort,
  then the greedy three-cell separation rule; :func:`hill_climb` and
  :func:`refine_from_seeds` are the Section 2.5 pattern search one
  candidate call at a time (``src/`` climbs every climber of a batch at
  once in :func:`~repro.core.optimizer.refine_many`), and
  :func:`reference_refinement` runs them for each client from those seeds,
  scored by a bounds-checked :func:`likelihood_at`;
* :func:`reference_find_peaks` and :func:`reference_peak_regions` are the
  Section 2.4 peak detection and lobe walk one grid point at a time, and
  :func:`reference_suppress` composes the Figure 8 algorithm from them;
  :func:`roaming_groups` captures the streaming input they are checked on.

Import it as ``tests.core._oracle``: the repo root is on ``sys.path`` for
every pytest run, so ``benchmarks/`` modules can import it too.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import replace
from typing import Any

import numpy as np

from repro.ap import ArrayTrackAP, BufferEntry
from repro.array.deployment import DeployedArray
from repro.array.geometry import ArrayGeometry
from repro.array.receiver import SnapshotMatrix
from repro.channel import movement_track, random_waypoint_track
from repro.constants import DEFAULT_GRID_RESOLUTION_M, WAVELENGTH_M
from repro.core.cache import BearingGridCache, default_bearing_cache, grid_axes
from repro.core.likelihood import LikelihoodMap
from repro.core.localizer import LocalizerConfig
from repro.core.music import _steering_matrix
from repro.core.optimizer import HillClimbResult
from repro.core.peaks import SpectrumPeak, match_peak
from repro.core.pipeline import SpectrumConfig
from repro.core.smoothing import effective_antennas
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.core.subspace import (DEFAULT_EIGENVALUE_THRESHOLD_FRACTION,
                                 SubspaceDecomposition)
from repro.core.suppression import MultipathSuppressor
from repro.core.symmetry import SymmetryResolver
from repro.core.weighting import geometry_window
from repro.dtypes import as_complex_array, as_float_array
from repro.errors import EstimationError
from repro.geometry.vector import Point2D, bearing_deg
from repro.testbed import (ScenarioConfig, SimulatedDeployment,
                           build_office_testbed)


def sample_covariance(snapshots: np.ndarray,
                      diagonal_loading: float = 0.0) -> np.ndarray:
    """Return the sample covariance matrix of an ``(M, N)`` snapshot matrix.

    Parameters
    ----------
    snapshots:
        ``(M, N)`` complex matrix of M antennas by N time samples.
    diagonal_loading:
        Non-negative value added to the diagonal, relative to the mean
        diagonal power (0 disables loading).

    Returns
    -------
    numpy.ndarray
        ``(M, M)`` Hermitian positive semi-definite matrix.
    """
    snapshots = as_complex_array(snapshots)
    if snapshots.ndim != 2:
        raise EstimationError(
            f"snapshot matrix must be two-dimensional, got shape {snapshots.shape}")
    num_antennas, num_snapshots = snapshots.shape
    if num_snapshots < 1:
        raise EstimationError("need at least one snapshot to estimate covariance")
    if diagonal_loading < 0:
        raise EstimationError(
            f"diagonal loading must be non-negative, got {diagonal_loading!r}")
    covariance = snapshots @ snapshots.conj().T / num_snapshots
    # Enforce exact Hermitian symmetry (guards against floating point drift).
    covariance = (covariance + covariance.conj().T) / 2.0
    if diagonal_loading > 0:
        mean_power = float(np.real(np.trace(covariance))) / num_antennas
        covariance = covariance + diagonal_loading * mean_power * np.eye(num_antennas)
    return covariance


def forward_backward_covariance(snapshots: np.ndarray,
                                diagonal_loading: float = 0.0) -> np.ndarray:
    """Return the forward-backward averaged covariance of a ULA snapshot matrix.

    Forward-backward averaging exploits the conjugate symmetry of a uniform
    linear array to decorrelate coherent sources using half as many
    sub-arrays as plain spatial smoothing would need.  It is provided as an
    optional enhancement (the paper uses forward-only smoothing); the
    ablation benchmarks compare the two.
    """
    covariance = sample_covariance(snapshots, diagonal_loading)
    exchange = np.eye(covariance.shape[0])[::-1]
    backward = exchange @ covariance.conj() @ exchange
    return (covariance + backward) / 2.0


def smoothed_covariance(snapshots: np.ndarray, num_groups: int,
                        diagonal_loading: float = 0.0,
                        forward_backward: bool = False) -> np.ndarray:
    """Return the spatially smoothed covariance of ULA snapshots.

    Parameters
    ----------
    snapshots:
        ``(M, N)`` snapshot matrix of a *uniform linear* array; the antenna
        ordering must follow the physical element order along the array.
    num_groups:
        Number of overlapping sub-arrays ``NG`` to average over.  ``NG = 1``
        degenerates to the plain sample covariance (no smoothing).
    diagonal_loading:
        Optional diagonal loading forwarded to the covariance estimator.
    forward_backward:
        When True, also average with the conjugate-reversed (backward)
        covariance of each sub-array, an additional decorrelation step
        explored by the ablation benchmarks.

    Returns
    -------
    numpy.ndarray
        ``(Ms, Ms)`` smoothed covariance with ``Ms = M - NG + 1``.
    """
    snapshots = as_complex_array(snapshots)
    if snapshots.ndim != 2:
        raise EstimationError(
            f"snapshot matrix must be two-dimensional, got shape {snapshots.shape}")
    num_antennas = snapshots.shape[0]
    sub_size = effective_antennas(num_antennas, num_groups)
    accumulated = np.zeros((sub_size, sub_size), dtype=snapshots.dtype)
    for group in range(num_groups):
        sub = snapshots[group:group + sub_size, :]
        covariance = sample_covariance(sub, diagonal_loading)
        if forward_backward:
            exchange = np.eye(sub_size)[::-1]
            covariance = (covariance + exchange @ covariance.conj() @ exchange) / 2.0
        accumulated += covariance
    return accumulated / num_groups


def decompose(covariance: np.ndarray,
              num_sources: int | None = None,
              threshold_fraction: float = DEFAULT_EIGENVALUE_THRESHOLD_FRACTION,
              max_sources: int | None = None) -> SubspaceDecomposition:
    """Eigendecompose ``covariance`` and split signal from noise subspace.

    Parameters
    ----------
    covariance:
        ``(M, M)`` Hermitian covariance matrix.
    num_sources:
        Force the number of signals ``D``; estimated from the eigenvalue
        threshold rule when omitted.
    threshold_fraction:
        An eigenvalue counts as a signal if it exceeds
        ``threshold_fraction * max(eigenvalues)`` (the paper's rule).
    max_sources:
        Upper bound on ``D``; defaults to ``M - 1`` so at least one noise
        eigenvector always remains (MUSIC needs a non-empty noise subspace).
    """
    covariance = as_complex_array(covariance)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise EstimationError(
            f"covariance must be a square matrix, got shape {covariance.shape}")
    num_antennas = covariance.shape[0]
    if num_antennas < 2:
        raise EstimationError("subspace analysis needs at least two antennas")
    if not 0.0 < threshold_fraction < 1.0:
        raise EstimationError(
            f"threshold_fraction must be in (0, 1), got {threshold_fraction!r}")
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    # eigh returns ascending order; we want non-increasing.
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.real(eigenvalues[order])
    eigenvectors = eigenvectors[:, order]
    limit = num_antennas - 1 if max_sources is None else min(max_sources, num_antennas - 1)
    if limit < 1:
        raise EstimationError("max_sources must allow at least one signal")
    if num_sources is None:
        num_sources = _threshold_source_count(eigenvalues, threshold_fraction)
    if not 1 <= num_sources:
        num_sources = 1
    num_sources = min(num_sources, limit)
    return SubspaceDecomposition(eigenvalues=eigenvalues,
                                 eigenvectors=eigenvectors,
                                 num_sources=int(num_sources))


def _threshold_source_count(eigenvalues: np.ndarray,
                            threshold_fraction: float) -> int:
    """Count eigenvalues above a fraction of the largest (the paper's rule)."""
    largest = float(eigenvalues[0])
    if largest <= 0:
        return 1
    threshold = threshold_fraction * largest
    return int(np.sum(eigenvalues > threshold))


def spectrum_from_noise_subspace(noise_subspace: np.ndarray,
                                 steering: np.ndarray) -> np.ndarray:
    """Evaluate the MUSIC spectrum given a noise subspace and steering matrix.

    Parameters
    ----------
    noise_subspace:
        ``(M, M - D)`` matrix of noise eigenvectors ``E_N``.
    steering:
        ``(M, K)`` matrix of steering vectors over the angle grid.

    Returns
    -------
    numpy.ndarray
        ``(K,)`` non-negative spectrum values.
    """
    noise_subspace = as_complex_array(noise_subspace)
    steering = as_complex_array(steering)
    if noise_subspace.shape[0] != steering.shape[0]:
        raise EstimationError(
            "noise subspace and steering matrix disagree on the antenna count: "
            f"{noise_subspace.shape[0]} vs {steering.shape[0]}")
    projected = noise_subspace.conj().T @ steering          # (M - D, K)
    denominator = np.sum(np.abs(projected) ** 2, axis=0)     # (K,)
    return 1.0 / np.maximum(denominator, 1e-12)


def music_spectrum(covariance: np.ndarray, geometry: ArrayGeometry,
                   angles_deg: np.ndarray,
                   num_sources: int | None = None,
                   wavelength_m: float = WAVELENGTH_M,
                   elevation_deg: float = 0.0) -> np.ndarray:
    """Return the MUSIC pseudospectrum over ``angles_deg``.

    Parameters
    ----------
    covariance:
        ``(M, M)`` (possibly spatially smoothed) array covariance matrix.
    geometry:
        Geometry of the (sub-)array the covariance corresponds to.
    angles_deg:
        Angle grid, in the array's local frame, to evaluate the spectrum on.
    num_sources:
        Number of incoming signals ``D``; estimated from the eigenvalues
        with the paper's threshold rule when omitted.
    wavelength_m:
        Carrier wavelength.
    elevation_deg:
        Common elevation of the arrivals (Appendix A height analysis).
    """
    covariance = as_complex_array(covariance)
    if covariance.shape[0] != geometry.num_elements:
        raise EstimationError(
            f"covariance is {covariance.shape[0]}x{covariance.shape[0]} but the "
            f"geometry has {geometry.num_elements} elements")
    decomposition: SubspaceDecomposition = decompose(covariance, num_sources)
    steering = _steering_matrix(geometry, angles_deg, wavelength_m, elevation_deg)
    return spectrum_from_noise_subspace(decomposition.noise_subspace, steering)


def bartlett_spectrum(covariance: np.ndarray, geometry: ArrayGeometry,
                      angles_deg: np.ndarray,
                      wavelength_m: float = WAVELENGTH_M,
                      elevation_deg: float = 0.0) -> np.ndarray:
    """Return the conventional (Bartlett) beamformer spectrum.

    ``P(theta) = a^H R a / (a^H a)``; lower resolution than MUSIC but makes
    no assumption about the number of sources, which is why the array
    symmetry test (Section 2.3.4) uses it on the non-linear nine-antenna
    geometry.  The quadratic form is evaluated as one ``R A`` GEMM followed
    by an elementwise reduction -- the same shape of computation the stacked
    :func:`bartlett_spectrum_many` runs per frame, keeping the two paths
    bit-for-bit identical.
    """
    covariance = as_complex_array(covariance)
    if covariance.shape[0] != geometry.num_elements:
        raise EstimationError(
            f"covariance is {covariance.shape[0]}x{covariance.shape[0]} but the "
            f"geometry has {geometry.num_elements} elements")
    steering = _steering_matrix(geometry, angles_deg, wavelength_m, elevation_deg)
    projected = covariance @ steering                        # (M, K)
    numerator = np.real(np.einsum("mk,mk->k", steering.conj(), projected))
    normalization = np.real(np.sum(np.abs(steering) ** 2, axis=0))
    return np.maximum(numerator, 0.0) / np.maximum(normalization, 1e-12)


def capon_spectrum(covariance: np.ndarray, geometry: ArrayGeometry,
                   angles_deg: np.ndarray,
                   wavelength_m: float = WAVELENGTH_M,
                   elevation_deg: float = 0.0,
                   diagonal_loading: float = 1e-3) -> np.ndarray:
    """Return the Capon (MVDR) spectrum ``1 / (a^H R^-1 a)``.

    Diagonal loading regularizes the inverse when the covariance is estimated
    from very few snapshots (the N = 1 case of Figure 19 would otherwise be
    singular).  The quadratic form is evaluated through
    ``np.linalg.solve(regularized, steering)`` rather than an explicit
    ``np.linalg.inv``: better conditioned and one fewer GEMM.
    """
    covariance = as_complex_array(covariance)
    if covariance.shape[0] != geometry.num_elements:
        raise EstimationError(
            f"covariance is {covariance.shape[0]}x{covariance.shape[0]} but the "
            f"geometry has {geometry.num_elements} elements")
    num_antennas = covariance.shape[0]
    loading = diagonal_loading * float(np.real(np.trace(covariance))) / num_antennas
    regularized = covariance + loading * np.eye(num_antennas)
    steering = _steering_matrix(geometry, angles_deg, wavelength_m, elevation_deg)
    solution = np.linalg.solve(regularized, steering)        # R^-1 A, (M, K)
    quadratic = np.real(np.einsum("mk,mk->k", steering.conj(), solution))
    return 1.0 / np.maximum(quadratic, 1e-12)


def mirror_half_spectrum(angles_deg: np.ndarray, power: np.ndarray,
                         **metadata: Any) -> AoASpectrum:
    """Mirror a ``[0, 180]`` linear-array spectrum onto the full circle.

    A linear array cannot tell which side of the array a signal arrives
    from (Section 2.3.4), so its spectrum on ``[0, 180]`` is mirrored to
    ``(180, 360)``: ``P(360 - theta) = P(theta)``.  The full circle is
    built on its exact point count with ``np.linspace``, so it is the grid
    ``default_angle_grid(resolution)`` builds, seam point included.
    """
    power = as_float_array(power)
    half_points = len(angles_deg)
    full_angles = np.linspace(0.0, 360.0, 2 * (half_points - 1),
                              endpoint=False)
    full_power = np.zeros_like(full_angles)
    full_power[:half_points] = power
    # Mirror: P(360 - theta) = P(theta), endpoints excluded.
    full_power[half_points:] = power[1:-1][::-1]
    return AoASpectrum(full_angles, full_power, **metadata)


def apply_geometry_weighting(spectrum: AoASpectrum) -> AoASpectrum:
    """Return ``spectrum`` multiplied by the array-geometry window W(theta)."""
    return replace(spectrum,
                   power=spectrum.power * geometry_window(spectrum.angles_deg))


def suppress_half_plane(spectrum: AoASpectrum, suppress_lower: bool,
                        attenuation: float = 0.0) -> AoASpectrum:
    """Return a copy of ``spectrum`` with one half plane scaled by
    ``attenuation`` (Section 2.3.4: the half with less power goes)."""
    mask_lower = spectrum.angles_deg >= 180.0
    power = spectrum.power.copy()
    if suppress_lower:
        power[mask_lower] *= attenuation
    else:
        power[~mask_lower] *= attenuation
    return replace(spectrum, power=power)


def side_powers(resolver: SymmetryResolver, snapshots: np.ndarray,
                spectrum: AoASpectrum | None = None) -> tuple[float, float]:
    """Return total Bartlett power in the upper/lower half planes.

    Parameters
    ----------
    snapshots:
        ``(M, N)`` snapshot matrix captured on the resolver's geometry
        (phase offsets already calibrated out).
    spectrum:
        Optional mirrored MUSIC spectrum of the same frame.  When given,
        the Bartlett response is weighted by the spectrum before
        integrating each half plane, so the comparison concentrates on
        the bearings where MUSIC actually sees arrivals instead of being
        diluted by side-lobe energy.
    """
    snapshots = as_complex_array(snapshots)
    if snapshots.shape[0] != resolver.geometry.num_elements:
        raise EstimationError(
            f"snapshots have {snapshots.shape[0]} rows but the geometry has "
            f"{resolver.geometry.num_elements} elements")
    covariance = sample_covariance(snapshots)
    angles = default_angle_grid(resolver.angle_resolution_deg, full_circle=True)
    power = bartlett_spectrum(covariance, resolver.geometry, angles, resolver.wavelength_m)
    if spectrum is not None:
        weights = spectrum.power_at_local(angles)
        peak = float(np.max(weights))
        if peak > 0:
            power = power * (weights / peak)
    upper = float(np.sum(power[angles < 180.0]))
    lower = float(np.sum(power[angles >= 180.0]))
    return upper, lower


def resolve(resolver: SymmetryResolver, spectrum: AoASpectrum,
            snapshots: np.ndarray, attenuation: float = 0.0) -> AoASpectrum:
    """Return ``spectrum`` with the weaker half plane suppressed.

    Parameters
    ----------
    spectrum:
        The mirrored 360-degree spectrum produced by the linear array.
    snapshots:
        Nine-antenna snapshot matrix for the same frame.
    attenuation:
        Residual scale applied to the suppressed half (0 removes it
        entirely, matching the paper).
    """
    upper, lower = side_powers(resolver, snapshots, spectrum)
    suppress_lower = upper >= lower
    return suppress_half_plane(spectrum, suppress_lower, attenuation)


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
    spectrum = mirror_half_spectrum(
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
    return resolve(resolver, spectrum, snapshots.samples[full_indices, :],
                   attenuation=config.symmetry_attenuation)


def reference_ap_spectrum(ap: ArrayTrackAP, entry: BufferEntry) -> AoASpectrum:
    """The spectrum ``ap`` should produce for one buffered frame."""
    snapshots = ap._compensate(entry.snapshots)
    if ap.config.use_symmetry_antenna:
        return reference_spectrum_with_symmetry(
            ap.config.spectrum, snapshots, ap.array, ap.linear_indices)
    return reference_spectrum(ap.config.spectrum, snapshots, ap.array,
                              ap.linear_indices)


def power_towards(spectrum: AoASpectrum, position: Point2D) -> float:
    """Return the spectrum value in the direction of a candidate location.

    This is the ``P_i(theta_i)`` term of Equation 8: the AP evaluates
    its spectrum at the bearing of the hypothesised client position.
    """
    if spectrum.ap_position is None:
        raise EstimationError(
            "spectrum has no AP position; cannot evaluate towards a point")
    if spectrum.ap_position.distance_to(position) < 1e-9:
        # The bearing of the AP's own location is undefined; a client is
        # never collocated with the AP antenna array, so rate it zero.
        return 0.0
    bearing = bearing_deg(spectrum.ap_position, position)
    return float(spectrum.power_at_local(
        bearing - spectrum.ap_orientation_deg)[0])


def likelihood_at(spectra: Sequence[AoASpectrum], position: Point2D,
                  floor: float = 0.0) -> float:
    """Return ``L(position)`` (Equation 8) for a set of per-AP spectra.

    Parameters
    ----------
    floor:
        Minimum value (relative to each spectrum's maximum) a spectrum
        contributes to the product.  A small positive floor keeps a single
        AP whose spectrum happens to be blind towards the true location
        from vetoing it outright; 0 reproduces the plain product.
    """
    if not spectra:
        raise EstimationError("need at least one AoA spectrum")
    likelihood = 1.0
    for spectrum in spectra:
        value = power_towards(spectrum, position)
        if floor > 0:
            value = max(value, floor * spectrum.max_power)
        likelihood *= value
    return float(likelihood)


def synthesize_likelihood(spectra: Sequence[AoASpectrum],
                          bounds: tuple[float, float, float, float],
                          resolution_m: float = DEFAULT_GRID_RESOLUTION_M,
                          normalize_spectra: bool = True,
                          floor: float = 0.0,
                          bearing_cache: BearingGridCache | None = None
                          ) -> LikelihoodMap:
    """Evaluate Equation 8 on a regular grid covering ``bounds``.

    Parameters
    ----------
    spectra:
        Processed AoA spectra, one (or more) per AP; each must carry its
        AP's position and orientation.
    bounds:
        ``(xmin, ymin, xmax, ymax)`` of the search area, in metres.
    resolution_m:
        Grid spacing; the paper uses a 10 cm grid.
    normalize_spectra:
        Normalize each spectrum to unit maximum before multiplying, so no
        single AP dominates the product through its absolute scale.
    floor:
        Minimum relative value each spectrum contributes (see
        :func:`likelihood_at`).
    bearing_cache:
        Cache of per-AP bearing tables; the shared default cache is used
        when omitted.
    """
    if not spectra:
        raise EstimationError("need at least one AoA spectrum")
    cache = bearing_cache if bearing_cache is not None else default_bearing_cache()
    x_coords, y_coords = grid_axes(bounds, resolution_m)
    shape = (y_coords.shape[0], x_coords.shape[0])
    values: np.ndarray | None = None
    for spectrum in spectra:
        if spectrum.ap_position is None:
            raise EstimationError(
                "every spectrum must carry its AP position for synthesis")
        usable = spectrum.normalized() if normalize_spectra else spectrum
        bearing_grid = cache.get(bounds, resolution_m, usable.ap_position)
        lower, upper, fraction = usable.interpolation_table(
            bearing_grid.bearings_deg - usable.ap_orientation_deg)
        power = (1.0 - fraction) * usable.power[lower] \
            + fraction * usable.power[upper]
        # The AP's own cell has no bearing; power_towards rates it zero.
        power[bearing_grid.collocated] = 0.0
        if floor > 0:
            power = np.maximum(power, floor * usable.max_power)
        values = power if values is None else values * power
    assert values is not None
    return LikelihoodMap(x_coords, y_coords, values.reshape(shape))


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


LikelihoodFunction = Callable[[Point2D], float]

#: Compass-neighbour probe order of the pattern search: +x, -x, +y, -y.
_NEIGHBOUR_DIRECTIONS: tuple[tuple[float, float], ...] = (
    (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def hill_climb(likelihood: LikelihoodFunction, start: Point2D,
               initial_step_m: float = 0.05,
               min_step_m: float = 0.005,
               max_evaluations: int = 400) -> HillClimbResult:
    """Refine ``start`` by pattern-search hill climbing on ``likelihood``.

    Parameters
    ----------
    likelihood:
        Function returning the (non-negative) likelihood of a position.
    start:
        Seed position (a high-likelihood grid cell).
    initial_step_m:
        First step size; half a grid cell by default.
    min_step_m:
        Terminate once the step shrinks below this value.
    max_evaluations:
        Hard cap on likelihood evaluations (guards against pathological
        surfaces).
    """
    if initial_step_m <= 0 or min_step_m <= 0:
        raise EstimationError("step sizes must be positive")
    if min_step_m > initial_step_m:
        raise EstimationError("min_step_m must not exceed initial_step_m")
    current = start
    current_value = likelihood(start)
    evaluations = 1
    step = initial_step_m
    while step >= min_step_m and evaluations < max_evaluations:
        moved = False
        for unit_dx, unit_dy in _NEIGHBOUR_DIRECTIONS:
            dx, dy = unit_dx * step, unit_dy * step
            candidate = Point2D(current.x + dx, current.y + dy)
            value = likelihood(candidate)
            evaluations += 1
            if value > current_value:
                current, current_value = candidate, value
                moved = True
                break
            if evaluations >= max_evaluations:
                break
        if not moved:
            step /= 2.0
    return HillClimbResult(position=current, value=current_value,
                           iterations=evaluations)


def refine_from_seeds(likelihood: LikelihoodFunction,
                      seeds: Sequence[tuple[Point2D, float]],
                      initial_step_m: float = 0.05,
                      min_step_m: float = 0.005) -> HillClimbResult:
    """Hill climb from each seed and return the best overall result.

    ``seeds`` are ``(position, grid_likelihood)`` pairs, typically the top
    three grid cells of the heatmap (Section 2.5).
    """
    if not seeds:
        raise EstimationError("need at least one seed position")
    results: list[HillClimbResult] = []
    for position, _ in seeds:
        results.append(hill_climb(likelihood, position, initial_step_m, min_step_m))
    return max(results, key=lambda r: r.value)


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
