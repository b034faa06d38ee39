"""Peak detection and matching on AoA pseudospectra.

Two parts of ArrayTrack need peak handling:

* the multipath suppression algorithm (Section 2.4) matches peaks across
  spectra of frames captured close together in time and removes peaks from
  the primary spectrum that have no counterpart (within five degrees) in the
  others;
* the Table 1 microbenchmark classifies direct-path and reflection-path peaks
  as "changed" or "unchanged" after a small client movement.

The angle grid is a circle, so neighbours and walks wrap across the 0/360
seam.  :func:`find_peaks` and :func:`peak_regions` are array code with no
loop over grid points:

* :func:`find_peaks` selects candidates in one pass: ``power`` at least the
  height floor, strictly above its left neighbour and at least its right
  neighbour.  A plateau therefore yields one peak, at its left edge (across
  the seam too), and a flat spectrum yields none.  Only the candidates get a
  prominence, each from two slices of a tripled ring ``[power, power,
  power]``: on each side, the points up to the first strictly higher one
  (the whole rest of the circle when there is none), and the prominence is
  the peak minus the higher of the two sides' minima.  Minimum, maximum and
  one subtraction are exact, so the result does not depend on the walk
  order.  Peaks are returned strongest first; equal powers keep grid order.
* :func:`peak_regions` lays the circle out centred on the peak; each side's
  lobe ends before its first rise or its first point below the valley floor.

``tests/core/_oracle.py`` holds point-by-point reference walks, and the
tests hold both implementations equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from numbers import Integral

import numpy as np

from repro.constants import PEAK_MATCH_TOLERANCE_DEG
from repro.errors import EstimationError
from repro.geometry.vector import angle_difference_deg
from repro.core.spectrum import AoASpectrum

__all__ = ["SpectrumPeak", "find_peaks", "match_peak", "peak_regions"]


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
    if not 0.0 <= min_relative_height <= 1.0:
        raise EstimationError("min_relative_height must be in [0, 1]")
    if not 0.0 <= min_relative_prominence <= 1.0:
        raise EstimationError("min_relative_prominence must be in [0, 1]")
    if max_peaks is not None and (isinstance(max_peaks, bool)
                                  or not isinstance(max_peaks, Integral)
                                  or max_peaks < 0):
        raise EstimationError(
            f"max_peaks must be an integer >= 0 or None, got {max_peaks!r}")
    power = spectrum.power
    n = power.shape[0]
    peak_value = float(power.max())
    if peak_value <= 0:
        return []
    height_floor = min_relative_height * peak_value
    prominence_floor = min_relative_prominence * peak_value
    # Three copies of the circle: ring[n + i] is power[i], and every walk of
    # up to n - 1 points away from it on either side is one slice.
    ring = np.concatenate((power, power, power))
    candidates = ((power >= height_floor)
                  & (power > ring[n - 1:2 * n - 1])
                  & (power >= ring[n + 1:2 * n + 1])).nonzero()[0]
    peaks: list[SpectrumPeak] = []
    for i in candidates.tolist():
        value = power[i]
        # Each side's minimum runs up to its first higher point (the
        # whole circle when there is none); left walks are nearest first.
        left = ring[i + n - 1:i:-1]
        right = ring[i + n + 1:i + 2 * n]
        left_min = left[:_first(left > value)].min(initial=value)
        right_min = right[:_first(right > value)].min(initial=value)
        prominence = float(value - max(left_min, right_min))
        if prominence < prominence_floor:
            continue
        peaks.append(SpectrumPeak(
            angle_deg=float(spectrum.angles_deg[i]),
            power=float(value),
            prominence=prominence,
            index=i,
        ))
    peaks.sort(key=lambda p: p.power, reverse=True)
    if max_peaks is not None:
        peaks = peaks[:max_peaks]
    return peaks


def _first(flags: np.ndarray) -> int:
    """Return the index of the first True in ``flags``, or its length."""
    first = int(flags.argmax())
    return first if flags[first] else flags.shape[0]


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
    if not 0.0 <= valley_fraction < 1.0:
        raise EstimationError("valley_fraction must be in [0, 1)")
    power = spectrum.power
    n = power.shape[0]
    index = peak.index
    floor = valley_fraction * peak.power
    # The circle centred on the peak: window[n - 1 + k] is power[index + k].
    window = np.concatenate((power[index + 1:], power, power[:index]))
    below = window < floor
    # Each walk keeps every point up to its first rise or first point
    # below the floor; the left walk runs on the reversed half.
    right = _first((window[n:] > window[n - 1:-1]) | below[n:])
    left = _first((window[n - 2::-1] > window[n - 1:0:-1]) | below[n - 2::-1])
    mask = np.zeros(n, dtype=bool)
    mask[np.arange(index - left, index + right + 1) % n] = True
    return mask
