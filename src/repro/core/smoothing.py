"""Spatial smoothing for coherent (phase-synchronized) multipath signals.

Section 2.3.2: indoor multipath components are phase-synchronized copies of
the same transmitted signal, so the array covariance matrix is rank-deficient
and plain MUSIC produces distorted spectra with false peaks.  Spatial
smoothing (Shan, Wax & Kailath) averages the covariance over ``NG``
overlapping sub-arrays of a uniform linear array, restoring the rank at the
cost of reducing the effective aperture: an eight-antenna array smoothed with
``NG = 3`` behaves like a six-antenna array (Figure 6).

The paper's microbenchmark (Figure 7) leads it to choose ``NG = 2``; the
:mod:`repro.eval` experiment E-FIG7 regenerates that comparison.

The smoothed covariance has one body, the stacked
:func:`smoothed_covariance_many` the batched frontend runs; the
single-frame name is a batch of one.
"""

from __future__ import annotations


import numpy as np

from repro.dtypes import as_complex_array
from repro.errors import EstimationError
from repro.core.covariance import _one_frame, sample_covariance_many

__all__ = [
    "smoothed_covariance",
    "smoothed_covariance_many",
    "smooth_snapshots",
    "effective_antennas",
]


def effective_antennas(num_antennas: int, num_groups: int) -> int:
    """Return the virtual (sub-array) size after smoothing with ``num_groups``.

    An ``M``-antenna ULA smoothed over ``NG`` groups yields sub-arrays of
    ``M - NG + 1`` elements.
    """
    if num_antennas < 2:
        raise EstimationError("smoothing requires at least two antennas")
    if num_groups < 1:
        raise EstimationError(f"num_groups must be >= 1, got {num_groups}")
    size = num_antennas - num_groups + 1
    if size < 2:
        raise EstimationError(
            f"smoothing {num_antennas} antennas over {num_groups} groups leaves "
            f"only {size} virtual antennas; need at least 2")
    return size


def smoothed_covariance(snapshots: np.ndarray, num_groups: int,
                        diagonal_loading: float = 0.0,
                        forward_backward: bool = False) -> np.ndarray:
    """Return the spatially smoothed covariance of ``(M, N)`` ULA snapshots.

    A batch of one through :func:`smoothed_covariance_many`.
    """
    return smoothed_covariance_many(_one_frame(snapshots), num_groups,
                                    diagonal_loading, forward_backward)[0]


def smoothed_covariance_many(snapshots: np.ndarray, num_groups: int,
                             diagonal_loading: float = 0.0,
                             forward_backward: bool = False) -> np.ndarray:
    """Return per-frame smoothed covariances of an ``(F, M, N)`` ULA stack.

    Each of the ``NG`` sub-array covariances is one stacked matmul over all
    frames, accumulated in group order.

    Parameters
    ----------
    snapshots:
        ``(F, M, N)`` snapshot stack of a *uniform linear* array; the
        antenna ordering must follow the physical element order along the
        array.
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
        ``(F, Ms, Ms)`` smoothed covariances with ``Ms = M - NG + 1``.
    """
    snapshots = as_complex_array(snapshots)
    if snapshots.ndim != 3:
        raise EstimationError(
            f"snapshot stack must be three-dimensional (F, M, N), "
            f"got shape {snapshots.shape}")
    num_frames, num_antennas = snapshots.shape[0], snapshots.shape[1]
    sub_size = effective_antennas(num_antennas, num_groups)
    accumulated = np.zeros((num_frames, sub_size, sub_size),
                           dtype=snapshots.dtype)
    for group in range(num_groups):
        sub = snapshots[:, group:group + sub_size, :]
        covariance = sample_covariance_many(sub, diagonal_loading)
        if forward_backward:
            exchange = np.eye(sub_size)[::-1]
            covariance = (covariance
                          + (exchange @ covariance.conj()) @ exchange) / 2.0
        accumulated += covariance
    return accumulated / num_groups


def smooth_snapshots(snapshots: np.ndarray, num_groups: int) -> np.ndarray:
    """Return spatially averaged *snapshots* (the Figure 6 construction).

    Figure 6 of the paper describes smoothing at the signal level: the
    virtual element ``i`` of the smoothed array is the average of physical
    elements ``i .. i + NG - 1``.  Smoothing the covariance (the
    conventional formulation, :func:`smoothed_covariance`) is what the AoA
    pipeline uses; this signal-level variant is kept for illustration and
    for tests that verify the two formulations agree on where the spectrum
    peaks are.
    """
    snapshots = as_complex_array(snapshots)
    if snapshots.ndim != 2:
        raise EstimationError(
            f"snapshot matrix must be two-dimensional, got shape {snapshots.shape}")
    num_antennas = snapshots.shape[0]
    sub_size = effective_antennas(num_antennas, num_groups)
    output = np.zeros((sub_size, snapshots.shape[1]), dtype=snapshots.dtype)
    for i in range(sub_size):
        output[i] = np.mean(snapshots[i:i + num_groups, :], axis=0)
    return output
