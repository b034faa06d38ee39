"""Client tracking: a bounded time series of location fixes per client.

The paper's motivating applications (augmented reality, retail analytics)
track clients "in real time, as they roam about a building".  The
:class:`ClientTracker` keeps each client's newest :data:`TRACK_CAPACITY`
fixes produced by the server and offers a lightly smoothed trajectory (an
exponential moving average of weight :data:`SMOOTHING_WEIGHT`), which is
what a consumer of a 10 Hz location feed would typically apply.

Fixes are kept strictly sorted by timestamp.  A fix arriving out of
timestamp order (network reordering between APs and server, a late tick)
is inserted at its chronological position and the smoothing is recomputed
from there on -- silently appending it would corrupt the EMA,
:meth:`ClientTracker.latest` and :meth:`ClientTracker.path_length_m`.  A
NaN or infinite timestamp has no chronological position and is refused.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, replace

from repro.errors import EstimationError
from repro.core.localizer import LocationEstimate
from repro.geometry.vector import Point2D

__all__ = ["SMOOTHING_WEIGHT", "TRACK_CAPACITY", "TrackPoint",
           "ClientTracker"]

#: Exponential moving average weight of the newest fix.
SMOOTHING_WEIGHT = 0.6

#: Fixes kept per client; the oldest age out first.  About 100 s of a 10 Hz
#: feed, so a long-lived service's track memory grows with its number of
#: clients, not with its uptime.
TRACK_CAPACITY = 1024


@dataclass(frozen=True)
class TrackPoint:
    """One entry of a client's track.

    Attributes
    ----------
    timestamp_s:
        Time of the fix.
    position:
        Raw estimated position.
    smoothed_position:
        Exponentially smoothed position (equals ``position`` for the first
        fix of a client).
    likelihood:
        Likelihood value of the fix.
    """

    timestamp_s: float
    position: Point2D
    smoothed_position: Point2D
    likelihood: float


class ClientTracker:
    """Maintains per-client location histories of at most
    :data:`TRACK_CAPACITY` fixes each."""

    def __init__(self) -> None:
        self._tracks: dict[str, list[TrackPoint]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, client_id: str, estimate: LocationEstimate,
               timestamp_s: float) -> TrackPoint:
        """Record a new fix for ``client_id`` and return its track point.

        Fixes are kept sorted by timestamp.  The common in-order fix is an
        O(1) append; a fix older than (or tied with) the newest one is
        inserted at its chronological position and the EMA recomputed from
        there on.  A tied timestamp inserts after the existing fixes with
        that timestamp (stable order).  A NaN or infinite timestamp raises
        :class:`~repro.errors.EstimationError` and changes nothing.

        The returned point is a frozen snapshot of the fix as recorded: it
        may already have aged out of the capped track, and a later
        out-of-order insertion may recompute the smoothing of its in-track
        successor -- :meth:`track` is always the authoritative,
        currently-smoothed history.
        """
        timestamp_s = float(timestamp_s)
        if not math.isfinite(timestamp_s):
            raise EstimationError(
                f"non-finite fix timestamp {timestamp_s!r} for client "
                f"{client_id!r}")
        history = self._tracks[client_id]
        index = bisect_right(history, timestamp_s,
                             key=lambda point: point.timestamp_s)
        point = TrackPoint(timestamp_s=timestamp_s,
                           position=estimate.position,
                           smoothed_position=estimate.position,
                           likelihood=estimate.likelihood)
        if index == 0 and len(history) >= TRACK_CAPACITY:
            # Older than every fix of a full track: it would age out at
            # once, and the EMA must not restart from it for the fixes kept.
            return point
        history.insert(index, point)
        _resmooth(history, index)
        point = history[index]
        if len(history) > TRACK_CAPACITY:
            del history[:len(history) - TRACK_CAPACITY]
        return point

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def clients(self) -> list[str]:
        """Return the identifiers of all tracked clients."""
        return sorted(self._tracks)

    def track(self, client_id: str) -> list[TrackPoint]:
        """Return the full track of ``client_id`` (oldest first)."""
        return list(self._tracks.get(client_id, []))

    def latest(self, client_id: str) -> TrackPoint | None:
        """Return the most recent fix for ``client_id``, or None."""
        history = self._tracks.get(client_id)
        return history[-1] if history else None

    def path_length_m(self, client_id: str, smoothed: bool = True) -> float:
        """Return the total length of the client's (smoothed) trajectory."""
        history = self._tracks.get(client_id, [])
        if len(history) < 2:
            return 0.0
        total = 0.0
        for previous, current in zip(history, history[1:], strict=False):
            a = previous.smoothed_position if smoothed else previous.position
            b = current.smoothed_position if smoothed else current.position
            total += a.distance_to(b)
        return total


def _resmooth(history: list[TrackPoint], start: int) -> None:
    """Recompute the EMA chain from ``start`` to the end of the track."""
    alpha = SMOOTHING_WEIGHT
    for index in range(start, len(history)):
        current = history[index]
        if index == 0:
            smoothed = current.position
        else:
            previous = history[index - 1].smoothed_position
            smoothed = Point2D(
                alpha * current.position.x + (1.0 - alpha) * previous.x,
                alpha * current.position.y + (1.0 - alpha) * previous.y,
            )
        if smoothed != current.smoothed_position:
            history[index] = replace(current, smoothed_position=smoothed)
