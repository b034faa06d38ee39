"""Eigenstructure analysis: signal/noise subspace separation.

Section 2.3.1: the array correlation matrix ``Rxx`` has ``M`` eigenvalues;
sorted in non-increasing order, the largest ``D`` correspond to the incoming
signals and the remaining ``M - D`` to noise.  The paper chooses ``D`` as the
number of eigenvalues larger than a threshold that is a fraction of the
largest eigenvalue; the same rule is implemented here (with the standard MDL
criterion available as an alternative for the ablation experiments).

The decomposition has one body, the stacked :func:`decompose_many` the
batched frontend runs; the single-frame :func:`decompose` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.dtypes import as_complex_array
from repro.errors import EstimationError

__all__ = [
    "SubspaceDecomposition",
    "SubspaceDecompositionBatch",
    "decompose",
    "decompose_many",
    "estimate_num_sources_mdl",
]

#: Fraction of the largest eigenvalue an eigenvalue must exceed to be
#: counted as a signal (the paper's thresholding rule).
DEFAULT_EIGENVALUE_THRESHOLD_FRACTION = 0.03


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Result of eigendecomposing an array covariance matrix.

    Attributes
    ----------
    eigenvalues:
        All ``M`` eigenvalues in non-increasing order (real, >= 0 up to
        numerical noise).
    eigenvectors:
        ``(M, M)`` matrix whose columns are the corresponding eigenvectors.
    num_sources:
        Estimated number of incoming signals ``D``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    num_sources: int

    @property
    def num_antennas(self) -> int:
        """Dimension M of the decomposed covariance matrix."""
        return int(self.eigenvalues.shape[0])

    @property
    def signal_subspace(self) -> np.ndarray:
        """``(M, D)`` matrix of signal-subspace eigenvectors (E_S)."""
        return self.eigenvectors[:, :self.num_sources]

    @property
    def noise_subspace(self) -> np.ndarray:
        """``(M, M - D)`` matrix of noise-subspace eigenvectors (E_N)."""
        return self.eigenvectors[:, self.num_sources:]

    @property
    def noise_power_estimate(self) -> float:
        """Average of the noise eigenvalues (estimate of sigma_n^2)."""
        noise_eigenvalues = self.eigenvalues[self.num_sources:]
        if noise_eigenvalues.size == 0:
            return 0.0
        return float(np.mean(noise_eigenvalues))


def decompose(covariance: np.ndarray,
              num_sources: int | None = None,
              threshold_fraction: float = DEFAULT_EIGENVALUE_THRESHOLD_FRACTION,
              max_sources: int | None = None) -> SubspaceDecomposition:
    """Eigendecompose an ``(M, M)`` covariance and split signal from noise.

    A batch of one through :func:`decompose_many`.
    """
    covariance = as_complex_array(covariance)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise EstimationError(
            f"covariance must be a square matrix, got shape {covariance.shape}")
    return decompose_many(covariance[None], num_sources, threshold_fraction,
                          max_sources).frame(0)


@dataclass(frozen=True)
class SubspaceDecompositionBatch:
    """Result of eigendecomposing a stack of array covariance matrices.

    The batched counterpart of :class:`SubspaceDecomposition` produced by
    :func:`decompose_many`: one stacked ``np.linalg.eigh`` call covers every
    frame, and :meth:`frame` views one of them as a
    :class:`SubspaceDecomposition`.

    Attributes
    ----------
    eigenvalues:
        ``(F, M)`` eigenvalues, each row in non-increasing order.
    eigenvectors:
        ``(F, M, M)`` stack whose columns (last axis indexes the column)
        are the corresponding eigenvectors.
    num_sources:
        ``(F,)`` integer array of estimated source counts ``D``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    num_sources: np.ndarray

    def __len__(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def num_antennas(self) -> int:
        """Dimension M of the decomposed covariance matrices."""
        return int(self.eigenvalues.shape[1])

    def frame(self, index: int) -> SubspaceDecomposition:
        """Return frame ``index`` as a single :class:`SubspaceDecomposition`."""
        return SubspaceDecomposition(
            eigenvalues=self.eigenvalues[index],
            eigenvectors=self.eigenvectors[index],
            num_sources=int(self.num_sources[index]))

    def noise_subspaces(self, num_sources: int) -> np.ndarray:
        """Return the stacked ``(G, M, M - D)`` noise subspaces of the frames
        whose estimated source count equals ``num_sources`` (in frame order).

        Grouping frames by ``D`` is what lets the batched MUSIC frontend run
        the Equation 6 noise projection as one GEMM per (geometry, D) group.
        """
        indices = np.nonzero(self.num_sources == num_sources)[0]
        return self.eigenvectors[indices][:, :, num_sources:]


def decompose_many(covariances: np.ndarray,
                   num_sources: int | Sequence[int] | None = None,
                   threshold_fraction: float = DEFAULT_EIGENVALUE_THRESHOLD_FRACTION,
                   max_sources: int | None = None
                   ) -> SubspaceDecompositionBatch:
    """Eigendecompose an ``(F, M, M)`` covariance stack in one LAPACK sweep.

    The stacked ``np.linalg.eigh`` gufunc decomposes every frame, the
    descending reorder is applied row-wise and the paper's
    eigenvalue-threshold source-count rule is evaluated for all frames at
    once.  An all-zero covariance gets ``D = 1``.

    Parameters
    ----------
    covariances:
        ``(F, M, M)`` stack of Hermitian covariance matrices.
    num_sources:
        Force the number of signals ``D``: a scalar applies to every frame,
        a length-``F`` sequence forces each frame individually; the
        threshold rule runs per frame when omitted.
    threshold_fraction:
        An eigenvalue counts as a signal if it exceeds
        ``threshold_fraction * max(eigenvalues)`` (the paper's rule).
    max_sources:
        Upper bound on ``D``; defaults to ``M - 1`` so at least one noise
        eigenvector always remains (MUSIC needs a non-empty noise subspace).
    """
    covariances = as_complex_array(covariances)
    if covariances.ndim != 3 or covariances.shape[1] != covariances.shape[2]:
        raise EstimationError(
            f"covariance stack must have shape (F, M, M), "
            f"got {covariances.shape}")
    num_frames, num_antennas = covariances.shape[0], covariances.shape[1]
    if num_antennas < 2:
        raise EstimationError("subspace analysis needs at least two antennas")
    if not 0.0 < threshold_fraction < 1.0:
        raise EstimationError(
            f"threshold_fraction must be in (0, 1), got {threshold_fraction!r}")
    limit = num_antennas - 1 if max_sources is None \
        else min(max_sources, num_antennas - 1)
    if limit < 1:
        raise EstimationError("max_sources must allow at least one signal")
    if num_frames == 0:
        return SubspaceDecompositionBatch(
            eigenvalues=np.empty((0, num_antennas)),
            eigenvectors=np.empty((0, num_antennas, num_antennas),
                                  dtype=covariances.dtype),
            num_sources=np.empty((0,), dtype=int))
    eigenvalues, eigenvectors = np.linalg.eigh(covariances)
    # eigh returns ascending order per frame; we want non-increasing.
    order = np.argsort(eigenvalues, axis=1)[:, ::-1]
    eigenvalues = np.real(np.take_along_axis(eigenvalues, order, axis=1))
    eigenvectors = np.take_along_axis(eigenvectors, order[:, None, :], axis=2)
    if num_sources is None:
        largest = eigenvalues[:, 0]
        thresholds = threshold_fraction * largest
        counts = np.sum(eigenvalues > thresholds[:, None], axis=1)
        counts = np.where(largest > 0, counts, 1)
    else:
        counts = np.asarray(num_sources, dtype=int)
        if counts.ndim == 0:
            counts = np.full(num_frames, int(counts))
        elif counts.shape != (num_frames,):
            raise EstimationError(
                f"num_sources must be a scalar or one value per frame, got "
                f"shape {counts.shape} for {num_frames} frames")
    counts = np.minimum(np.maximum(counts, 1), limit)
    return SubspaceDecompositionBatch(eigenvalues=eigenvalues,
                                      eigenvectors=eigenvectors,
                                      num_sources=counts.astype(int))


def estimate_num_sources_mdl(eigenvalues: np.ndarray, num_snapshots: int) -> int:
    """Return the MDL (minimum description length) estimate of the source count.

    Provided as an alternative to the paper's fractional-threshold rule for
    the estimator ablation; both should agree in easy (high SNR, well
    separated sources) conditions.
    """
    eigenvalues = np.sort(np.real(np.asarray(eigenvalues)))[::-1]
    eigenvalues = np.maximum(eigenvalues, 1e-15)
    num_antennas = eigenvalues.shape[0]
    if num_snapshots < 1:
        raise EstimationError("num_snapshots must be >= 1 for MDL")
    best_d, best_score = 1, math.inf
    for d in range(0, num_antennas):
        tail = eigenvalues[d:]
        k = tail.shape[0]
        geometric = float(np.exp(np.mean(np.log(tail))))
        arithmetic = float(np.mean(tail))
        if arithmetic <= 0:
            continue
        likelihood = -num_snapshots * k * math.log(max(geometric / arithmetic, 1e-300))
        penalty = 0.5 * d * (2 * num_antennas - d) * math.log(max(num_snapshots, 2))
        score = likelihood + penalty
        if score < best_score:
            best_score = score
            best_d = max(d, 1)
    return min(best_d, num_antennas - 1)
