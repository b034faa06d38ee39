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

import copy
import math
from dataclasses import dataclass
from collections.abc import Hashable, Mapping, Sequence
from itertools import islice
from typing import TypeVar, overload

import numpy as np

from repro.constants import (
    MULTIPATH_SUPPRESSION_WINDOW_S,
    PEAK_MATCH_TOLERANCE_DEG,
)
from repro.errors import EstimationError
from repro.core.peaks import find_peaks_many, lobe_extents
# The single-spectrum names stay bound here, where perfbench/tracing.py
# wraps them; the stacked pass calls only the two above.
from repro.core.peaks import find_peaks as find_peaks
from repro.core.peaks import peak_regions as peak_regions
from repro.core.spectrum import AoASpectrum

__all__ = ["MultipathSuppressor", "SuppressorConfig", "group_spectra_by_time"]

_Key = TypeVar("_Key", bound=Hashable)


def group_spectra_by_time(spectra: Sequence[AoASpectrum],
                          window_s: float = MULTIPATH_SUPPRESSION_WINDOW_S,
                          max_group_size: int = 3,
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
    companion ends up in a singleton group.  A group's span is bounded by
    ``(max_group_size - 1) * window_s``.

    Parameters
    ----------
    spectra:
        The spectra to group.
    window_s:
        Maximum gap between *consecutive* frames of one group.
    max_group_size:
        Maximum frames per group.
    timestamps:
        Capture times overriding each spectrum's own ``timestamp_s`` (one
        per spectrum) -- the streaming sessions group on their
        ingest-resolved times, which may legitimately differ.
    """
    if max_group_size < 1:
        raise EstimationError("max_group_size must be >= 1")
    if window_s < 0:
        raise EstimationError("window_s must be non-negative")
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
    group_last_ts = 0.0
    for i in order:
        timestamp = times[i]
        if (groups
                and len(groups[-1]) < max_group_size
                and timestamp - group_last_ts <= window_s):
            groups[-1].append(spectra[i])
        else:
            groups.append([spectra[i]])
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
    """

    tolerance_deg: float = PEAK_MATCH_TOLERANCE_DEG
    min_relative_height: float = 0.1
    residual_fraction: float = 0.05
    window_s: float = MULTIPATH_SUPPRESSION_WINDOW_S
    max_group_size: int = 3

    def __post_init__(self) -> None:
        # ``nan < 0`` is False, so each float is checked for finiteness
        # too: a NaN window would make every frame its own group,
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

    # ------------------------------------------------------------------
    # Core algorithm
    # ------------------------------------------------------------------
    def suppress(self, group: Sequence[AoASpectrum],
                 primary_index: int = 0) -> AoASpectrum:
        """Run the Figure 8 algorithm on one group of spectra.

        A batch of one through :meth:`suppress_many`.

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
        return self.suppress_many([[primary, *companions]])[0]

    def suppress_many(self, groups: Sequence[Sequence[AoASpectrum]]
                      ) -> list[AoASpectrum]:
        """Run the Figure 8 algorithm on every group in one stacked pass.

        Each group's first spectrum is its primary; one output per group,
        in order.  A singleton group's primary is returned unchanged.  The
        pass:

        1. stacks every spectrum of every group into one ``(k, n)`` power
           array per grid length (each row keeps its own angles);
        2. finds the peaks of every stack with :func:`find_peaks_many`;
        3. marks a primary peak stable when every companion of its group
           has a peak within ``tolerance_deg``, over a padded ``(spectra,
           peaks)`` angle table and the wrap formula of
           :func:`~repro.geometry.vector.angle_difference_deg`;
        4. scales each unstable lobe of a primary outside its stable lobes
           by ``residual_fraction``, once per covering lobe, as the
           one-lobe-at-a-time multiplications do.
        """
        if any(len(group) == 0 for group in groups):
            raise EstimationError("cannot suppress an empty spectrum group")
        result = [group[0] for group in groups]
        active = [number for number, group in enumerate(groups)
                  if len(group) > 1]
        if not active:
            return result
        spectra = [spectrum for number in active for spectrum in groups[number]]
        sizes = np.array([len(groups[number]) for number in active])
        first = np.cumsum(sizes) - sizes
        group_of = np.repeat(np.arange(len(active)), sizes)
        # Steps 1 and 2: one stack and one peak search per grid length.
        stacks: list[tuple[np.ndarray, np.ndarray]] = []
        columns: list[tuple[np.ndarray, ...]] = []
        for members in _by_length(spectra):
            power = np.array([spectra[member].power for member in members])
            angles = np.array([spectra[member].angles_deg
                               for member in members])
            found = find_peaks_many(power, self.min_relative_height)
            stacks.append((power, members))
            columns.append((members[found.rows], found.index, found.power,
                            angles[found.rows, found.index]))
        owner, index, peak_power, angle = (
            np.concatenate(column) for column in zip(*columns, strict=True))
        # Step 3: match the primaries' peaks.
        primary = np.flatnonzero(owner == first[group_of[owner]])
        stable = self._stable(primary, owner, _normalized(angle), first,
                              sizes, group_of, len(spectra))
        # Step 4: the lobes of every primary peak of a group that has an
        # unstable one; the stable lobes protect, the others scale.
        lobed = np.zeros(len(active), dtype=bool)
        lobed[group_of[owner[primary[~stable]]]] = True
        for power, members in stacks:
            row = np.full(len(spectra), -1)
            row[members] = np.arange(members.shape[0])
            heads = np.flatnonzero(row[first] >= 0)
            take = (row[owner[primary]] >= 0) \
                & lobed[group_of[owner[primary]]]
            peaks = primary[take]
            left, right = lobe_extents(power, row[owner[peaks]], index[peaks],
                                       peak_power[peaks])
            protecting, scaling = _coverage(
                power.shape[1], heads.shape[0],
                np.searchsorted(heads, group_of[owner[peaks]]), stable[take],
                index[peaks] - left, left + right + 1)
            suppressed = power[row[first[heads]]]
            for times in range(1, int(scaling.max(initial=0)) + 1):
                suppressed = np.where((scaling >= times) & (protecting == 0),
                                      suppressed * self.residual_fraction,
                                      suppressed)
            for head, power_row in zip(heads.tolist(), suppressed,
                                       strict=True):
                number = active[head]
                result[number] = _with_power(groups[number][0], power_row)
        return result

    def _stable(self, primary: np.ndarray, owner: np.ndarray,
                angle: np.ndarray, first: np.ndarray, sizes: np.ndarray,
                group_of: np.ndarray, num_spectra: int) -> np.ndarray:
        """Whether each primary peak has a match on every companion.

        ``primary`` indexes the primary peaks among all peaks (``owner``:
        each peak's spectrum; ``angle``: its normalized angle).  The peaks
        sit in a ``(spectra, peaks)`` angle table padded with NaN, which is
        within no tolerance of any angle.
        """
        order = np.argsort(owner, kind="stable")
        spectrum = owner[order]
        table = np.full((num_spectra, int(np.bincount(owner).max(initial=0))),
                        np.nan)
        table[spectrum, np.arange(order.shape[0])
              - np.searchsorted(spectrum, spectrum)] = angle[order]
        group = group_of[owner[primary]]
        slots = np.arange(1, int(sizes.max()))
        present = slots < sizes[group, np.newaxis]
        companions = np.where(present, first[group, np.newaxis] + slots, 0)
        difference = np.abs(angle[primary, np.newaxis, np.newaxis]
                            - table[companions]) % 360.0
        distance = np.minimum(difference, 360.0 - difference)
        matched = (distance <= self.tolerance_deg).any(axis=2)
        return (matched | ~present).all(axis=1)

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def group(self, spectra: Sequence[AoASpectrum],
              window_s: float | None = None,
              timestamps: Sequence[float] | None = None
              ) -> list[list[AoASpectrum]]:
        """Group ``spectra`` by time with this suppressor's window rules.

        ``window_s`` overrides the configured window for this call;
        ``timestamps`` overrides the spectra's own capture times (see
        :func:`group_spectra_by_time`).
        """
        window = self.window_s if window_s is None else window_s
        return group_spectra_by_time(spectra, window, self.max_group_size,
                                     timestamps)

    @overload
    def process(self, spectra: Sequence[AoASpectrum],
                window_s: float | None = None,
                timestamps: Sequence[float] | None = None
                ) -> list[AoASpectrum]: ...

    @overload
    def process(self, spectra: Mapping[_Key, Sequence[AoASpectrum]],
                window_s: float | None = None,
                timestamps: Mapping[_Key, Sequence[float]] | None = None
                ) -> dict[_Key, list[AoASpectrum]]: ...

    def process(self, spectra: Sequence[AoASpectrum]
                | Mapping[_Key, Sequence[AoASpectrum]],
                window_s: float | None = None,
                timestamps: Sequence[float]
                | Mapping[_Key, Sequence[float]] | None = None
                ) -> list[AoASpectrum] | dict[_Key, list[AoASpectrum]]:
        """Group ``spectra`` by time and suppress each group.

        ``spectra`` is one stream of frames, or a mapping of streams (one
        per client and AP, say) with ``timestamps`` keyed alike; frames
        are grouped within their own stream only.  Every group then goes
        through one :meth:`suppress_many` pass.  Returns one output
        spectrum per group (the processed primary), which is what the
        synthesis step consumes: a list for one stream, a dict of lists
        keyed like ``spectra`` for many.
        """
        if not isinstance(spectra, Mapping):
            if isinstance(timestamps, Mapping):
                raise EstimationError(
                    "one stream takes its timestamps as a sequence")
            return self.suppress_many(self.group(spectra, window_s,
                                                 timestamps))
        if timestamps is not None and not isinstance(timestamps, Mapping):
            raise EstimationError(
                "a mapping of streams takes its timestamps as a mapping "
                "keyed alike")
        groups = {key: self.group(frames, window_s,
                                  None if timestamps is None
                                  else timestamps[key])
                  for key, frames in spectra.items()}
        outputs = iter(self.suppress_many(
            [group for stream in groups.values() for group in stream]))
        return {key: list(islice(outputs, len(stream)))
                for key, stream in groups.items()}


def _by_length(spectra: Sequence[AoASpectrum]) -> list[np.ndarray]:
    """Positions of ``spectra``, one ascending array per grid length."""
    members: dict[int, list[int]] = {}
    for position, spectrum in enumerate(spectra):
        members.setdefault(spectrum.power.shape[0], []).append(position)
    return [np.array(positions) for positions in members.values()]


def _coverage(n: int, num_rows: int, row: np.ndarray, stable: np.ndarray,
              start: np.ndarray, length: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Count the stable and the unstable lobes over each row's grid.

    Lobe ``j`` on row ``row[j]`` covers ``length[j]`` points from
    ``start[j]`` round the circle.  Returns two ``(num_rows, n)`` counts.
    """
    length = np.minimum(length, n)
    lobe = np.repeat(np.arange(length.shape[0]), length)
    step = np.arange(lobe.shape[0]) - np.repeat(np.cumsum(length) - length,
                                                length)
    point = row[lobe] * n + (start[lobe] + step) % n
    kept = stable[lobe]
    size = num_rows * n
    return (np.bincount(point[kept], minlength=size).reshape(num_rows, n),
            np.bincount(point[~kept], minlength=size).reshape(num_rows, n))


def _with_power(spectrum: AoASpectrum, power: np.ndarray) -> AoASpectrum:
    """``spectrum`` carrying ``power``, a scaled copy of its own power row.

    The row keeps the validated grid length and, scaled by factors in
    ``[0, 1)``, stays non-negative, so the spectrum is not validated again
    as :meth:`~repro.core.spectrum.AoASpectrum.copy_with_power` would.
    """
    suppressed = copy.copy(spectrum)
    suppressed.power = power
    return suppressed


def _normalized(angles_deg: np.ndarray) -> np.ndarray:
    """:func:`~repro.geometry.vector.normalize_angle_deg` of every angle."""
    normalized = angles_deg % 360.0
    return np.where(normalized >= 360.0, 0.0, normalized)

#: The suppression step is configured by the same dataclass that implements
#: it: :class:`MultipathSuppressor` carries only plain parameters, so the
#: service-level configuration tree (:class:`repro.api.ArrayTrackConfig`)
#: composes it directly under this alias.
SuppressorConfig = MultipathSuppressor
