"""Array correlation (covariance) matrix estimation.

The eigenstructure methods of Section 2.3.1 start from the ``M x M`` array
correlation matrix ``Rxx = E[x x*]`` whose entry (l, m) is the mean
correlation between the l-th and m-th antennas' signals.  With only a handful
of snapshots (ArrayTrack uses ten samples per frame) the expectation is
replaced by the sample average; optional diagonal loading keeps the matrix
well conditioned when the snapshot count is tiny (the N = 1 case of
Figure 19).

Each estimator has one body, the stacked ``*_many`` form over an
``(F, M, N)`` snapshot stack that the batched Section 2.3 frontend runs;
the single-frame name is a batch of one.
"""

from __future__ import annotations


import numpy as np

from repro.dtypes import as_complex_array
from repro.errors import EstimationError

__all__ = [
    "sample_covariance",
    "sample_covariance_many",
]


def _one_frame(snapshots: np.ndarray) -> np.ndarray:
    """Return an ``(M, N)`` snapshot matrix as a ``(1, M, N)`` stack."""
    snapshots = as_complex_array(snapshots)
    if snapshots.ndim != 2:
        raise EstimationError(
            f"snapshot matrix must be two-dimensional, got shape {snapshots.shape}")
    return snapshots[None]


def sample_covariance(snapshots: np.ndarray,
                      diagonal_loading: float = 0.0) -> np.ndarray:
    """Return the ``(M, M)`` sample covariance of an ``(M, N)`` snapshot matrix.

    A batch of one through :func:`sample_covariance_many`.
    """
    return sample_covariance_many(_one_frame(snapshots), diagonal_loading)[0]


def sample_covariance_many(snapshots: np.ndarray,
                           diagonal_loading: float = 0.0) -> np.ndarray:
    """Return per-frame sample covariances of an ``(F, M, N)`` snapshot stack.

    One stacked ``matmul`` produces every frame's ``(M, M)`` covariance at
    once; the result is made exactly Hermitian and optionally loaded.

    Parameters
    ----------
    snapshots:
        ``(F, M, N)`` complex stack of F frames' snapshot matrices.
    diagonal_loading:
        Non-negative value added to each frame's diagonal, relative to that
        frame's mean diagonal power (0 disables loading).

    Returns
    -------
    numpy.ndarray
        ``(F, M, M)`` stack of Hermitian positive semi-definite matrices.
    """
    snapshots = as_complex_array(snapshots)
    if snapshots.ndim != 3:
        raise EstimationError(
            f"snapshot stack must be three-dimensional (F, M, N), "
            f"got shape {snapshots.shape}")
    num_frames, num_antennas, num_snapshots = snapshots.shape
    if num_snapshots < 1:
        raise EstimationError("need at least one snapshot to estimate covariance")
    if diagonal_loading < 0:
        raise EstimationError(
            f"diagonal loading must be non-negative, got {diagonal_loading!r}")
    covariance = snapshots @ snapshots.conj().transpose(0, 2, 1) / num_snapshots
    covariance = (covariance + covariance.conj().transpose(0, 2, 1)) / 2.0
    if diagonal_loading > 0:
        mean_power = np.real(np.trace(covariance, axis1=1, axis2=2)) / num_antennas
        covariance = covariance \
            + (diagonal_loading * mean_power)[:, None, None] * np.eye(num_antennas)
    return covariance

