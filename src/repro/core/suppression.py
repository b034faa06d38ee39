"""Multipath suppression across frames (Section 2.4, Figure 8).

Spatial smoothing cleans up the AoA spectrum but does not identify which peak
is the direct path; reflection peaks remain free to mislead the localization
step.  ArrayTrack's multipath suppression algorithm exploits a physical
observation (quantified in Table 1): when the client, receiver or nearby
objects move a few centimetres between frames, the direct-path peak stays
put while reflection-path peaks shift or vanish.

The algorithm (Figure 8):

1. Group two to three AoA spectra from frames spaced closer than 100 ms in
   time; if no such grouping exists for a spectrum, output it unchanged.
2. Arbitrarily choose one spectrum as the primary, and remove peaks from the
   primary not paired with peaks on the other spectra.
3. Output the primary to the synthesis step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.constants import (
    MULTIPATH_SUPPRESSION_WINDOW_S,
    PEAK_MATCH_TOLERANCE_DEG,
)
from repro.errors import EstimationError
from repro.core.peaks import SpectrumPeak, find_peaks, match_peak, peak_regions
from repro.core.spectrum import AoASpectrum

__all__ = ["MultipathSuppressor", "SuppressorConfig", "group_spectra_by_time"]


def group_spectra_by_time(spectra: Sequence[AoASpectrum],
                          window_s: float = MULTIPATH_SUPPRESSION_WINDOW_S,
                          max_group_size: int = 3,
                          max_span_s: float | None = None,
                          timestamps: Sequence[float] | None = None
                          ) -> list[list[AoASpectrum]]:
    """Group spectra whose frames were captured closely together in time.

    Spectra are sorted by timestamp and greedily packed into groups of up to
    ``max_group_size`` frames; a frame joins the current group when the gap
    to the *previous* frame is at most ``window_s`` seconds (Section 2.4
    groups "two to three AoA spectra from frames spaced closer than 100 ms"
    -- the spacing constraint is between neighbouring frames, so frames at
    0 / 60 / 120 ms form one group rather than splitting the third frame
    away from its 60 ms-near companion).  A spectrum with no close-enough
    companion ends up in a singleton group.

    Parameters
    ----------
    spectra:
        The spectra to group.
    window_s:
        Maximum gap between *consecutive* frames of one group.
    max_group_size:
        Maximum frames per group.
    max_span_s:
        Explicit cap on a group's total time span (first to last frame).
        When None the span is bounded only implicitly, by
        ``(max_group_size - 1) * window_s``.
    timestamps:
        Capture times overriding each spectrum's own ``timestamp_s`` (one
        per spectrum) -- the streaming sessions group on their
        ingest-resolved times, which may legitimately differ.
    """
    if max_group_size < 1:
        raise EstimationError("max_group_size must be >= 1")
    if window_s < 0:
        raise EstimationError("window_s must be non-negative")
    if max_span_s is not None and max_span_s < 0:
        raise EstimationError("max_span_s must be non-negative or None")
    spectra = list(spectra)
    if timestamps is None:
        times = [spectrum.timestamp_s for spectrum in spectra]
    else:
        times = [float(timestamp) for timestamp in timestamps]
        if len(times) != len(spectra):
            raise EstimationError(
                f"got {len(times)} timestamps for {len(spectra)} spectra")
    order = sorted(range(len(spectra)), key=lambda i: times[i])
    groups: list[list[AoASpectrum]] = []
    group_first_ts = 0.0
    group_last_ts = 0.0
    for i in order:
        timestamp = times[i]
        if (groups
                and len(groups[-1]) < max_group_size
                and timestamp - group_last_ts <= window_s
                and (max_span_s is None
                     or timestamp - group_first_ts <= max_span_s)):
            groups[-1].append(spectra[i])
        else:
            groups.append([spectra[i]])
            group_first_ts = timestamp
        group_last_ts = timestamp
    return groups


@dataclass
class MultipathSuppressor:
    """Removes reflection peaks from a primary spectrum using companion frames.

    Parameters
    ----------
    tolerance_deg:
        Peaks within this angular distance across frames count as "the same
        bearing" (five degrees in the paper).
    min_relative_height:
        Peak detection floor relative to the spectrum maximum, in ``[0, 1]``.
    residual_fraction:
        Unmatched lobes are scaled down to this fraction of their original
        value rather than hard-zeroed, so the likelihood synthesis
        (a product across APs, Equation 8) never multiplies by exactly zero
        because of one noisy companion frame.
    window_s:
        Maximum gap between consecutive frames of one suppression group
        (the paper's 100 ms window).
    max_group_size:
        Maximum frames per suppression group ("two to three" in the paper).
    max_span_s:
        Explicit cap on a group's first-to-last time span (None bounds it
        only implicitly, by ``(max_group_size - 1) * window_s``).
    """

    tolerance_deg: float = PEAK_MATCH_TOLERANCE_DEG
    min_relative_height: float = 0.1
    residual_fraction: float = 0.05
    window_s: float = MULTIPATH_SUPPRESSION_WINDOW_S
    max_group_size: int = 3
    max_span_s: float | None = None

    def __post_init__(self) -> None:
        # ``nan < 0`` is False, so each float is checked for finiteness
        # too: a NaN window or span would make every frame its own group,
        # a NaN tolerance would match no peak.
        if not math.isfinite(self.tolerance_deg) or self.tolerance_deg < 0:
            raise EstimationError("tolerance_deg must be finite and non-negative")
        if not 0.0 <= self.min_relative_height <= 1.0:
            # Validated here so a bad value fails at construction/config-load
            # time instead of surfacing as a find_peaks error mid-stream.
            raise EstimationError("min_relative_height must be in [0, 1]")
        if not 0.0 <= self.residual_fraction < 1.0:
            raise EstimationError("residual_fraction must be in [0, 1)")
        if not math.isfinite(self.window_s) or self.window_s < 0:
            raise EstimationError("window_s must be finite and non-negative")
        if isinstance(self.max_group_size, bool) \
                or not isinstance(self.max_group_size, int) \
                or self.max_group_size < 1:
            raise EstimationError(
                f"max_group_size must be an int >= 1, "
                f"got {self.max_group_size!r}")
        if self.max_span_s is not None and (
                not math.isfinite(self.max_span_s) or self.max_span_s < 0):
            raise EstimationError(
                "max_span_s must be finite and non-negative or None")

    # ------------------------------------------------------------------
    # Core algorithm
    # ------------------------------------------------------------------
    def suppress(self, group: Sequence[AoASpectrum],
                 primary_index: int = 0) -> AoASpectrum:
        """Run the Figure 8 algorithm on one group of spectra.

        Parameters
        ----------
        group:
            Two or three spectra of frames captured within the suppression
            window.  A singleton group is returned unchanged (step 1 of the
            algorithm).
        primary_index:
            Which spectrum of the group acts as the primary.
        """
        if len(group) == 0:
            raise EstimationError("cannot suppress an empty spectrum group")
        if not 0 <= primary_index < len(group):
            raise EstimationError(
                f"primary_index {primary_index} out of range for a group of "
                f"{len(group)} spectra")
        primary = group[primary_index]
        companions = [s for i, s in enumerate(group) if i != primary_index]
        if not companions:
            return primary
        primary_peaks = find_peaks(primary, self.min_relative_height)
        companion_peaks = [find_peaks(s, self.min_relative_height) for s in companions]
        stable_peaks = [peak for peak in primary_peaks
                        if self._is_stable(peak, companion_peaks)]
        unstable_peaks = [peak for peak in primary_peaks if peak not in stable_peaks]
        # Grid points belonging to a stable (matched) peak's lobe are
        # protected: an adjacent unstable lobe must never erase the bearing
        # of a peak the algorithm decided to keep (typically the direct path).
        protected = np.zeros(primary.power.shape[0], dtype=bool)
        for peak in stable_peaks:
            protected |= peak_regions(primary, peak)
        power = primary.power.copy()
        for peak in unstable_peaks:
            lobe = peak_regions(primary, peak) & ~protected
            power[lobe] *= self.residual_fraction
        return primary.copy_with_power(power)

    def _is_stable(self, peak: SpectrumPeak,
                   companion_peaks: Sequence[Sequence[SpectrumPeak]]) -> bool:
        """A peak is stable when every companion spectrum has a matching peak."""
        return all(
            match_peak(peak, peaks, self.tolerance_deg) is not None
            for peaks in companion_peaks
        )

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def process(self, spectra: Sequence[AoASpectrum],
                window_s: float | None = None,
                timestamps: Sequence[float] | None = None
                ) -> list[AoASpectrum]:
        """Group ``spectra`` by time and suppress each group.

        Returns one output spectrum per group (the processed primary), which
        is what the synthesis step consumes.  ``window_s`` overrides the
        configured window for this call; ``timestamps`` overrides the
        spectra's own capture times (see :func:`group_spectra_by_time`).
        """
        window = self.window_s if window_s is None else window_s
        groups = group_spectra_by_time(spectra, window, self.max_group_size,
                                       self.max_span_s, timestamps)
        return [self.suppress(group) for group in groups]


#: The suppression step is configured by the same dataclass that implements
#: it: :class:`MultipathSuppressor` carries only plain parameters, so the
#: service-level configuration tree (:class:`repro.api.ArrayTrackConfig`)
#: composes it directly under this alias.
SuppressorConfig = MultipathSuppressor
