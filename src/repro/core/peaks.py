"""Peak detection and matching on AoA pseudospectra.

Two parts of ArrayTrack need peak handling:

* the multipath suppression algorithm (Section 2.4) matches peaks across
  spectra of frames captured close together in time and removes peaks from
  the primary spectrum that have no counterpart (within five degrees) in the
  others;
* the Table 1 microbenchmark classifies direct-path and reflection-path peaks
  as "changed" or "unchanged" after a small client movement.

The angle grid is a circle, so neighbours and walks wrap across the 0/360
seam.  Peaks and lobes are found for a whole ``(k, n)`` stack of power rows
in one array pass; :func:`find_peaks` and :func:`peak_regions` are batches
of one through it:

* :func:`find_peaks_many` selects candidates: ``power`` at least the
  row's height floor, strictly above its left neighbour and at least its
  right neighbour.  A plateau therefore yields one peak, at its left edge
  (across the seam too), and a flat row yields none.  A candidate's
  prominence is the peak minus the higher of its two sides' minima, each
  side running up to the first strictly higher point (the whole rest of
  the circle when there is none).  Walking up from that point reaches a
  candidate higher than the peak without passing below it, so a side's
  minimum is the minimum of the valley segments between consecutive
  candidates up to the nearest higher candidate: one ``reduceat`` over the
  segments, then a walk over at most as many segments as the row has
  candidates.  Minimum, maximum and one subtraction are exact, so the
  result does not depend on the walk order.  Peaks come out row by row,
  strongest first; equal powers keep grid order.
* :func:`lobe_extents` walks each peak's lobe on the circle laid out from
  the peak: each side ends before its first rise or its first point below
  the valley floor.

``tests/core/_oracle.py`` holds point-by-point reference walks, and the
tests hold both implementations equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from numbers import Integral
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.constants import PEAK_MATCH_TOLERANCE_DEG
from repro.errors import EstimationError
from repro.geometry.vector import angle_difference_deg
from repro.core.spectrum import AoASpectrum

__all__ = ["PeakStack", "SpectrumPeak", "find_peaks", "find_peaks_many",
           "lobe_extents", "match_peak", "peak_regions"]


@dataclass(frozen=True)
class SpectrumPeak:
    """A local maximum of an AoA pseudospectrum.

    Attributes
    ----------
    angle_deg:
        Angle of the peak in the spectrum's local frame.
    power:
        Pseudospectrum value at the peak.
    prominence:
        Height of the peak above the higher of its two flanking minima.
    index:
        Index of the peak on the spectrum grid.
    """

    angle_deg: float
    power: float
    prominence: float
    index: int


class PeakStack(NamedTuple):
    """The peaks of a ``(k, n)`` power stack, one entry per peak.

    Entries run row by row; within a row, strongest first, equal powers in
    grid order.
    """

    rows: np.ndarray
    index: np.ndarray
    power: np.ndarray
    prominence: np.ndarray


def find_peaks(spectrum: AoASpectrum,
               min_relative_height: float = 0.05,
               min_relative_prominence: float = 0.02,
               max_peaks: int | None = None) -> list[SpectrumPeak]:
    """Return the local maxima of ``spectrum``, strongest first.

    Peaks of equal power keep their grid order.

    Parameters
    ----------
    spectrum:
        The AoA spectrum to analyze.
    min_relative_height:
        Peaks below this fraction of the spectrum maximum are ignored.
    min_relative_prominence:
        Peaks whose prominence is below this fraction of the spectrum
        maximum are ignored (suppresses ripples on the flank of a big peak).
    max_peaks:
        Optional cap on the number of returned peaks (an int >= 0).
    """
    found = find_peaks_many(spectrum.power[np.newaxis], min_relative_height,
                            min_relative_prominence, max_peaks)
    angles = spectrum.angles_deg
    return [SpectrumPeak(angle_deg=float(angles[index]), power=power,
                         prominence=prominence, index=index)
            for index, power, prominence in zip(
                found.index.tolist(), found.power.tolist(),
                found.prominence.tolist(), strict=True)]


def find_peaks_many(power: np.ndarray,
                    min_relative_height: float = 0.05,
                    min_relative_prominence: float = 0.02,
                    max_peaks: int | None = None) -> PeakStack:
    """Return the local maxima of every row of a ``(k, n)`` power stack.

    Each row is one circular spectrum and gets :func:`find_peaks`' floors
    relative to its own maximum; ``max_peaks`` caps each row.
    """
    if not 0.0 <= min_relative_height <= 1.0:
        raise EstimationError("min_relative_height must be in [0, 1]")
    if not 0.0 <= min_relative_prominence <= 1.0:
        raise EstimationError("min_relative_prominence must be in [0, 1]")
    if max_peaks is not None and (isinstance(max_peaks, bool)
                                  or not isinstance(max_peaks, Integral)
                                  or max_peaks < 0):
        raise EstimationError(
            f"max_peaks must be an integer >= 0 or None, got {max_peaks!r}")
    # A row whose maximum is zero is flat (powers are non-negative), so it
    # has no candidate.
    peak_value = power.max(axis=1, initial=0.0)
    n = power.shape[1]
    # Each row twice over: ring[:, n + i - 1] and ring[:, i + 1] are the
    # neighbours of point i.
    ring = np.concatenate((power, power), axis=1)
    candidates = ((power >= (min_relative_height * peak_value)[:, None])
                  & (power > ring[:, n - 1:2 * n - 1])
                  & (power >= ring[:, 1:n + 1]))
    rows, index = np.divmod(np.flatnonzero(candidates), n)
    value = power[rows, index]
    prominence = _prominence(ring, rows, index, value)
    # Not below the floor: a NaN prominence passes, as in the reference walk.
    keep = ~(prominence < min_relative_prominence * peak_value[rows])
    rows, index, value, prominence = \
        rows[keep], index[keep], value[keep], prominence[keep]
    order = np.lexsort((index, -value, rows))
    rows, index, value, prominence = \
        rows[order], index[order], value[order], prominence[order]
    if max_peaks is not None:
        rank = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
        keep = rank < max_peaks
        rows, index, value, prominence = \
            rows[keep], index[keep], value[keep], prominence[keep]
    return PeakStack(rows, index, value, prominence)


def _prominence(ring: np.ndarray, rows: np.ndarray, index: np.ndarray,
                value: np.ndarray) -> np.ndarray:
    """Prominence of each candidate, from the valleys between candidates.

    ``ring`` is the power stack with each row laid out twice, and
    ``rows``/``index`` list the candidates in row-major order.  Valley
    ``t`` is the minimum over the open arc from candidate ``t`` to the next
    candidate of its row (cyclically; the whole rest of the circle for a
    lone candidate).  Each side's walk takes the valleys up to and
    including the one that ends at the first higher candidate, or all of
    them when none is higher.  The candidates passed on the way are above
    a point of the valley before them, so they never lower a minimum.
    """
    count = rows.shape[0]
    if count == 0:
        return value.copy()
    n = ring.shape[1] // 2
    position = np.arange(count)
    first = np.searchsorted(rows, rows)
    per_row = np.bincount(rows)[rows]
    rank = position - first
    wraps = rank + 1 == per_row
    following = np.where(wraps, first, position + 1)
    # Valley t is the slice [index + 1, next index) of its doubled row, the
    # next index moved on by n on the wrap.  Every slice is non-empty and
    # they are ordered, so one reduceat over the interleaved bounds takes
    # every minimum.
    bounds = np.empty(2 * count, dtype=np.intp)
    offset = rows * (2 * n)
    bounds[0::2] = offset + index + 1
    bounds[1::2] = offset + index[following] + np.where(wraps, n, 0)
    valley = np.minimum.reduceat(ring.ravel(), bounds)[0::2]
    # Walk step e (one row per step): on the right, valley rank + e then
    # candidate rank + e + 1; on the left, valley and candidate
    # rank - e - 1.  Steps past a row's own count are never taken, so
    # they are clipped there and every position wraps round its row at
    # most once.
    steps = np.minimum(np.arange(int(per_row.max()) + 1)[:, None], per_row)
    walked = steps[:-1] < per_row
    ahead = rank + steps
    ahead += first - per_row * (ahead >= per_row)
    behind = rank - steps[1:]
    behind += first + per_row * (behind < 0)
    right_min = _walk_min(valley[ahead[:-1]], value[ahead[1:]] > value,
                          walked, value)
    left_min = _walk_min(valley[behind], value[behind] > value, walked, value)
    return value - np.maximum(left_min, right_min)


def _walk_min(valleys: np.ndarray, higher: np.ndarray, walked: np.ndarray,
              value: np.ndarray) -> np.ndarray:
    """Minimum of ``value`` and each column's valleys up to the first
    higher candidate (``higher[e]``: the candidate after valley ``e`` is
    higher than the peak)."""
    taken = walked.copy()
    taken[1:] &= ~np.logical_or.accumulate(higher, axis=0)[:-1]
    return np.where(taken, valleys, value).min(axis=0)


def _first(flags: np.ndarray) -> np.ndarray:
    """Index of the first True of each row of ``flags``, or its width."""
    first = flags.argmax(axis=1)
    found = flags[np.arange(flags.shape[0]), first]
    return np.where(found, first, flags.shape[1])


def match_peak(peak: SpectrumPeak, candidates: Sequence[SpectrumPeak],
               tolerance_deg: float = PEAK_MATCH_TOLERANCE_DEG) -> SpectrumPeak | None:
    """Return the closest candidate within ``tolerance_deg`` of ``peak``.

    Section 2.4 considers a bearing "unchanged" if the corresponding peaks of
    two spectra lie within five degrees of each other.
    """
    if tolerance_deg < 0:
        raise EstimationError("tolerance must be non-negative")
    best: SpectrumPeak | None = None
    best_distance = float("inf")
    for candidate in candidates:
        distance = angle_difference_deg(peak.angle_deg, candidate.angle_deg)
        if distance <= tolerance_deg and distance < best_distance:
            best = candidate
            best_distance = distance
    return best


def peak_regions(spectrum: AoASpectrum, peak: SpectrumPeak,
                 valley_fraction: float = 0.5) -> np.ndarray:
    """Return a boolean mask of grid points belonging to ``peak``'s lobe.

    The lobe extends from the peak outwards (circularly) in both directions
    until the spectrum either rises again or falls below ``valley_fraction``
    times the peak value.  Used by the multipath suppression step to remove
    an entire unmatched lobe rather than a single grid point.
    """
    left, right = lobe_extents(spectrum.power[np.newaxis],
                               np.zeros(1, dtype=np.intp),
                               np.array([peak.index]), np.array([peak.power]),
                               valley_fraction)
    n = spectrum.power.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[np.arange(peak.index - left[0], peak.index + right[0] + 1) % n] = True
    return mask


def lobe_extents(power: np.ndarray, rows: np.ndarray, index: np.ndarray,
                 peak_power: np.ndarray, valley_fraction: float = 0.5
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Return how far each peak's lobe reaches to the left and the right.

    Peak ``j`` sits at ``power[rows[j], index[j]]`` of a ``(k, n)`` power
    stack, with value ``peak_power[j]``; its :func:`peak_regions` lobe runs
    from ``index[j] - left[j]`` to ``index[j] + right[j]`` round the
    circle.
    """
    if not 0.0 <= valley_fraction < 1.0:
        raise EstimationError("valley_fraction must be in [0, 1)")
    n = power.shape[1]
    # The circle from each peak round to itself: window[j, s] is the power
    # s points to the right of peak j, for s = 0 .. n.
    ring = np.concatenate((power, power), axis=1)
    window = sliding_window_view(ring, n + 1, axis=1)[rows, index]
    below = window[:, 1:n] < (valley_fraction * peak_power)[:, np.newaxis]
    # Each walk keeps every point up to its first rise or first point below
    # the floor; the left walk reads the window backwards from s = n - 1.
    right = _first((window[:, 1:n] > window[:, :n - 1]) | below)
    left = _first(((window[:, 1:n] > window[:, 2:]) | below)[:, ::-1])
    return left, right
