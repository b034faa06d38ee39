"""MUSIC pseudospectrum computation (plus classical beamformers for comparison).

Section 2.3.1, Equation 6: the MUSIC spectrum inverts the distance between
the array steering vector continuum and the signal subspace,

    P(theta) = 1 / (a(theta)^H  E_N E_N^H  a(theta)),

yielding sharp peaks at the arrival angles.  The Bartlett (conventional) and
Capon (MVDR) beamformers are implemented alongside: the paper calls MUSIC the
"best known" of the eigenstructure algorithms, and the ablation benchmark
A-ESTIMATOR quantifies how much accuracy the MUSIC choice is worth.

Every estimator has one body, the stacked ``*_many`` form taking an
``(F, M, M)`` covariance stack that the batched Section 2.3 frontend runs
(:meth:`repro.core.pipeline.SpectrumComputer.compute_many`); the
single-frame name is a batch of one.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.constants import WAVELENGTH_M
from repro.dtypes import as_complex_array, as_float_array
from repro.errors import EstimationError
from repro.array.geometry import ArrayGeometry
from repro.core.cache import default_steering_cache
from repro.core.subspace import SubspaceDecompositionBatch, decompose_many

__all__ = [
    "music_spectrum",
    "music_spectrum_many",
    "bartlett_spectrum",
    "bartlett_spectrum_many",
    "capon_spectrum",
    "capon_spectrum_many",
    "check_capon_traces",
    "check_nonzero_traces",
    "spectrum_from_noise_subspace",
    "spectrum_from_noise_subspace_many",
]


#: Frames per stacked Bartlett GEMM.  It bounds the complex ``(F, M, K)``
#: product to 0.8 MB for nine antennas on the 2-degree grid of the Section
#: 2.3.4 side-power scan.
_BARTLETT_CHUNK = 32


def _steering_matrix(geometry: ArrayGeometry, angles_deg: np.ndarray,
                     wavelength_m: float) -> np.ndarray:
    """Return the (cached) steering matrix for ``geometry`` over ``angles_deg``.

    The steering continuum of Equation 6 is a pure function of the static
    array geometry, so it is served from the shared
    :class:`~repro.core.cache.SteeringCache`: every AP with the same antenna
    layout computes it once per (grid, wavelength) and reuses it for every
    subsequent frame.  Arrivals are taken in the array's horizontal plane:
    Appendix A bounds the AP/client height error instead of compensating
    for it.  The returned matrix is read-only.
    """
    angles = as_float_array(angles_deg)
    if angles.ndim != 1 or angles.shape[0] < 2:
        raise EstimationError("angle grid must be a 1-D array with >= 2 entries")
    return default_steering_cache().get(geometry, angles, wavelength_m)


def _check_covariance_stack(covariances: np.ndarray,
                            geometry: ArrayGeometry) -> np.ndarray:
    """Validate an ``(F, M, M)`` stack against the geometry's element count."""
    covariances = as_complex_array(covariances)
    if covariances.ndim != 3 or covariances.shape[1] != covariances.shape[2]:
        raise EstimationError(
            f"covariance stack must have shape (F, M, M), "
            f"got {covariances.shape}")
    if covariances.shape[1] != geometry.num_elements:
        raise EstimationError(
            f"covariances are {covariances.shape[1]}x{covariances.shape[1]} but "
            f"the geometry has {geometry.num_elements} elements")
    return covariances


def _one_covariance(covariance: np.ndarray) -> np.ndarray:
    """Return an ``(M, M)`` covariance as a ``(1, M, M)`` stack."""
    covariance = as_complex_array(covariance)
    if covariance.ndim != 2:
        raise EstimationError(
            f"covariance must be a matrix, got shape {covariance.shape}")
    return covariance[None]


def spectrum_from_noise_subspace(noise_subspace: np.ndarray,
                                 steering: np.ndarray) -> np.ndarray:
    """Evaluate the MUSIC spectrum of one ``(M, M - D)`` noise subspace.

    A batch of one through :func:`spectrum_from_noise_subspace_many`.
    """
    noise_subspace = as_complex_array(noise_subspace)
    if noise_subspace.ndim != 2:
        raise EstimationError(
            f"noise subspace must have shape (M, M - D), "
            f"got {noise_subspace.shape}")
    return spectrum_from_noise_subspace_many(noise_subspace[None], steering)[0]


def spectrum_from_noise_subspace_many(noise_subspaces: np.ndarray,
                                      steering: np.ndarray) -> np.ndarray:
    """Evaluate MUSIC spectra for a stack of same-``D`` noise subspaces.

    This is the Equation 6 noise projection of one (geometry, D) frame
    group: a single stacked ``E_N^H A`` GEMM over all ``G`` frames sharing
    the source count, followed by elementwise reductions.

    Parameters
    ----------
    noise_subspaces:
        ``(G, M, M - D)`` stack of noise eigenvectors.
    steering:
        ``(M, K)`` steering matrix over the angle grid.

    Returns
    -------
    numpy.ndarray
        ``(G, K)`` non-negative spectrum values, one row per frame.
    """
    noise_subspaces = as_complex_array(noise_subspaces)
    steering = as_complex_array(steering)
    if noise_subspaces.ndim != 3:
        raise EstimationError(
            f"noise subspace stack must have shape (G, M, M - D), "
            f"got {noise_subspaces.shape}")
    if noise_subspaces.shape[1] != steering.shape[0]:
        raise EstimationError(
            "noise subspaces and steering matrix disagree on the antenna "
            f"count: {noise_subspaces.shape[1]} vs {steering.shape[0]}")
    projected = noise_subspaces.conj().transpose(0, 2, 1) @ steering
    denominator = np.sum(np.abs(projected) ** 2, axis=1)     # (G, K)
    return 1.0 / np.maximum(denominator, 1e-12)


def music_spectrum(covariance: np.ndarray, geometry: ArrayGeometry,
                   angles_deg: np.ndarray,
                   num_sources: int | None = None,
                   wavelength_m: float = WAVELENGTH_M) -> np.ndarray:
    """Return the MUSIC pseudospectrum of one ``(M, M)`` covariance.

    A batch of one through :func:`music_spectrum_many`.
    """
    return music_spectrum_many(_one_covariance(covariance), geometry,
                               angles_deg, num_sources, wavelength_m)[0]


def music_spectrum_many(covariances: np.ndarray, geometry: ArrayGeometry,
                        angles_deg: np.ndarray,
                        num_sources: int | Sequence[int] | None = None,
                        wavelength_m: float = WAVELENGTH_M) -> np.ndarray:
    """Return MUSIC pseudospectra for an ``(F, M, M)`` covariance stack.

    One stacked ``np.linalg.eigh`` covers every frame, the eigenvalue
    threshold rule runs vectorized, and frames are grouped by their
    estimated source count ``D`` so the Equation 6 noise projection is one
    ``E_N^H A`` GEMM per (geometry, D) group against the cached steering
    matrix.

    Parameters
    ----------
    covariances:
        ``(F, M, M)`` (possibly spatially smoothed) array covariances.
    geometry:
        Geometry of the (sub-)array the covariances correspond to.
    angles_deg:
        Angle grid, in the array's local frame, to evaluate the spectra on.
    num_sources:
        Number of incoming signals ``D``, for every frame or one per frame;
        estimated from the eigenvalues with the paper's threshold rule when
        omitted.
    wavelength_m:
        Carrier wavelength.
    """
    covariances = _check_covariance_stack(covariances, geometry)
    steering = _steering_matrix(geometry, angles_deg, wavelength_m)
    batch: SubspaceDecompositionBatch = decompose_many(covariances, num_sources)
    power = np.empty((covariances.shape[0], steering.shape[1]))
    for count in np.unique(batch.num_sources):
        indices = np.nonzero(batch.num_sources == count)[0]
        noise = batch.eigenvectors[indices][:, :, count:]
        power[indices] = spectrum_from_noise_subspace_many(noise, steering)
    return power


def bartlett_spectrum(covariance: np.ndarray, geometry: ArrayGeometry,
                      angles_deg: np.ndarray,
                      wavelength_m: float = WAVELENGTH_M) -> np.ndarray:
    """Return the Bartlett spectrum of one ``(M, M)`` covariance.

    A batch of one through :func:`bartlett_spectrum_many`.
    """
    return bartlett_spectrum_many(_one_covariance(covariance), geometry,
                                  angles_deg, wavelength_m)[0]


def bartlett_spectrum_many(covariances: np.ndarray, geometry: ArrayGeometry,
                           angles_deg: np.ndarray,
                           wavelength_m: float = WAVELENGTH_M) -> np.ndarray:
    """Return conventional (Bartlett) beamformer spectra for a covariance stack.

    ``P(theta) = a^H R a / (a^H a)`` per frame; lower resolution than MUSIC
    but makes no assumption about the number of sources, which is why the
    array symmetry test (Section 2.3.4) uses it on the non-linear
    nine-antenna geometry.  The quadratic forms are stacked ``R A`` GEMMs
    followed by an elementwise reduction, :data:`_BARTLETT_CHUNK` frames
    at a time: the complex ``(F, M, K)`` product is the largest temporary
    of a frontend pass, and every frame's values are the same whatever
    the chunk holds.
    """
    covariances = _check_covariance_stack(covariances, geometry)
    steering = _steering_matrix(geometry, angles_deg, wavelength_m)
    conjugate = steering.conj()
    numerator = np.empty((covariances.shape[0], steering.shape[1]))
    for start in range(0, covariances.shape[0], _BARTLETT_CHUNK):
        chunk = slice(start, start + _BARTLETT_CHUNK)
        projected = covariances[chunk] @ steering             # (C, M, K)
        numerator[chunk] = np.real(np.einsum("mk,fmk->fk", conjugate,
                                             projected))
    normalization = np.real(np.sum(np.abs(steering) ** 2, axis=0))
    return np.maximum(numerator, 0.0) / np.maximum(normalization, 1e-12)


def capon_spectrum(covariance: np.ndarray, geometry: ArrayGeometry,
                   angles_deg: np.ndarray,
                   wavelength_m: float = WAVELENGTH_M,
                   diagonal_loading: float = 1e-3) -> np.ndarray:
    """Return the Capon (MVDR) spectrum of one ``(M, M)`` covariance.

    A batch of one through :func:`capon_spectrum_many`.
    """
    return capon_spectrum_many(_one_covariance(covariance), geometry,
                               angles_deg, wavelength_m,
                               diagonal_loading)[0]


def capon_spectrum_many(covariances: np.ndarray, geometry: ArrayGeometry,
                        angles_deg: np.ndarray,
                        wavelength_m: float = WAVELENGTH_M,
                        diagonal_loading: float = 1e-3) -> np.ndarray:
    """Return Capon (MVDR) spectra ``1 / (a^H R^-1 a)`` for a covariance stack.

    Diagonal loading, relative to each frame's mean diagonal power,
    regularizes the inverse when the covariance is estimated from very few
    snapshots (the N = 1 case of Figure 19 would otherwise be singular).
    The quadratic forms are evaluated through one stacked
    ``np.linalg.solve(regularized, steering)`` rather than an explicit
    ``np.linalg.inv``: better conditioned and one fewer GEMM.

    Each frame is solved scaled by ``2**-e``, where ``2**e`` brackets its
    trace, and the spectrum is scaled back by ``2**e`` afterwards.  Both
    scalings are exact in floating point, so the spectrum scales exactly
    with the covariance, and the ``1e-12`` floor on the quadratic form is
    relative to the frame's power rather than absolute.

    Raises
    ------
    EstimationError
        If a frame's covariance trace is zero or too small to load in
        range (:func:`check_capon_traces`).
    """
    covariances = _check_covariance_stack(covariances, geometry)
    num_antennas = covariances.shape[1]
    traces = np.real(np.trace(covariances, axis1=1, axis2=2))
    check_capon_traces(traces, num_antennas, diagonal_loading)
    exponents = np.frexp(traces)[1]
    scales = np.ldexp(1.0, -exponents)
    loading = diagonal_loading * (traces * scales) / num_antennas
    regularized = covariances * scales[:, None, None] \
        + loading[:, None, None] * np.eye(num_antennas)
    steering = _steering_matrix(geometry, angles_deg, wavelength_m)
    solution = np.linalg.solve(regularized, steering)        # (F, M, K)
    quadratic = np.real(np.einsum("mk,fmk->fk", steering.conj(), solution))
    return np.ldexp(1.0 / np.maximum(quadratic, 1e-12), exponents[:, None])


def check_capon_traces(traces: np.ndarray, num_antennas: int,
                       diagonal_loading: float = 1e-3) -> None:
    """Raise if any frame's covariance trace is too small for Capon.

    Capon's diagonal loading ``diagonal_loading * trace / num_antennas``
    is what keeps the solve in range.  A zero trace (all-zero snapshots)
    cannot be loaded at all, and below
    ``num_antennas**2 * 2**-1000 / diagonal_loading`` the power-of-two
    scale of :func:`capon_spectrum_many` and the spectrum values, which
    scale with the trace, leave the normal floating-point range; at or
    above it every spectrum value stays above ``2**-1000``.
    ``traces`` may also be lower bounds of the traces (such as the linear
    rows' sample energy over ``antennas x snapshots``), which only makes
    the check stricter.

    Raises
    ------
    EstimationError
        Naming every frame with zero trace, or else every frame whose
        trace is below the bound.
    """
    traces = check_nonzero_traces(traces, "Capon")
    minimum = num_antennas ** 2 * 2.0 ** -1000 / diagonal_loading
    weak = np.flatnonzero(traces < minimum)
    if weak.size:
        raise EstimationError(
            f"Capon needs a covariance trace of at least {minimum:.1e} to "
            f"stay in range under its diagonal loading, but frames "
            f"{weak.tolist()} have less")


def check_nonzero_traces(traces: np.ndarray, estimator: str) -> np.ndarray:
    """Raise if any frame's covariance trace is zero; return the traces.

    A zero trace (all-zero snapshots, or samples whose squares underflow)
    leaves every estimator without a usable spectrum: Bartlett's is all
    zero, MUSIC's eigenvectors are arbitrary and Capon cannot load it.
    ``estimator`` names the estimator in the message.

    Raises
    ------
    EstimationError
        Naming every frame with zero trace.
    """
    traces = as_float_array(traces)
    empty = np.flatnonzero(traces == 0)
    if empty.size:
        raise EstimationError(
            f"{estimator} needs a covariance with non-zero power, but frames "
            f"{empty.tolist()} have zero trace (all-zero snapshots)")
    return traces
