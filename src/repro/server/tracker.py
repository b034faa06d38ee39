"""Client tracking: a time series of location fixes per client.

The paper's motivating applications (augmented reality, retail analytics)
track clients "in real time, as they roam about a building".  The
:class:`ClientTracker` keeps the history of fixes produced by the server and
offers a lightly smoothed trajectory (exponential moving average), which is
what a consumer of a 10 Hz location feed would typically apply.

Fixes are kept strictly sorted by timestamp.  A fix arriving out of
timestamp order (network reordering between APs and server, a late tick) is
either inserted at its chronological position with the smoothing recomputed
from there on, or rejected with a clear error, depending on the configured
``on_out_of_order`` policy -- silently appending it would corrupt the EMA,
:meth:`ClientTracker.latest` and :meth:`ClientTracker.path_length_m`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, EstimationError
from repro.core.localizer import LocationEstimate
from repro.geometry.vector import Point2D

__all__ = ["TrackPoint", "TrackerConfig", "ClientTracker"]

#: Valid ``on_out_of_order`` policies.
_OUT_OF_ORDER_POLICIES = ("insert", "reject")


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


@dataclass
class TrackerConfig:
    """Configuration of the per-client fix tracker.

    Attributes
    ----------
    smoothing_factor:
        Exponential moving average weight of the newest fix, in ``(0, 1]``
        (1 disables smoothing).
    max_history:
        Maximum number of fixes retained per client (None keeps everything).
    on_out_of_order:
        What :meth:`ClientTracker.update` does with a fix whose timestamp
        does not advance the track: ``"insert"`` (default) places it at its
        chronological position and recomputes the smoothing from there on;
        ``"reject"`` raises :class:`~repro.errors.EstimationError`.
    """

    smoothing_factor: float = 0.6
    max_history: int | None = None
    on_out_of_order: str = "insert"

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing_factor <= 1.0:
            raise ConfigurationError("smoothing_factor must be in (0, 1]")
        if self.max_history is not None and self.max_history < 1:
            raise ConfigurationError("max_history must be >= 1 or None")
        if self.on_out_of_order not in _OUT_OF_ORDER_POLICIES:
            raise ConfigurationError(
                f"on_out_of_order must be one of {_OUT_OF_ORDER_POLICIES}, "
                f"got {self.on_out_of_order!r}")

    def build(self) -> "ClientTracker":
        """Construct a tracker with this configuration."""
        return ClientTracker(smoothing_factor=self.smoothing_factor,
                             max_history=self.max_history,
                             on_out_of_order=self.on_out_of_order)


class ClientTracker:
    """Maintains per-client location histories.

    Parameters
    ----------
    smoothing_factor:
        Exponential moving average weight of the newest fix, in ``(0, 1]``
        (1 disables smoothing).
    max_history:
        Maximum number of fixes retained per client (None keeps everything).
    on_out_of_order:
        Policy for fixes whose timestamp does not advance the track
        (see :class:`TrackerConfig`).
    """

    def __init__(self, smoothing_factor: float = 0.6,
                 max_history: int | None = None,
                 on_out_of_order: str = "insert") -> None:
        # Reuse the config dataclass's validation so the constructor and the
        # service config tree can never drift apart.
        config = TrackerConfig(smoothing_factor=smoothing_factor,
                               max_history=max_history,
                               on_out_of_order=on_out_of_order)
        self.smoothing_factor = config.smoothing_factor
        self.max_history = config.max_history
        self.on_out_of_order = config.on_out_of_order
        self._tracks: dict[str, list[TrackPoint]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, client_id: str, estimate: LocationEstimate,
               timestamp_s: float) -> TrackPoint:
        """Record a new fix for ``client_id`` and return its track point.

        Fixes are kept sorted by timestamp.  The common in-order fix is an
        O(1) append; a fix older than (or tied with) the newest one follows
        the ``on_out_of_order`` policy -- chronological insertion with the
        EMA recomputed from the insertion point onwards, or a clear
        :class:`~repro.errors.EstimationError`.  A tied timestamp inserts
        after the existing fixes with that timestamp (stable order).

        The returned point is a frozen snapshot of the fix as recorded:
        with ``max_history`` set it may already have aged out of the
        capped track, and a later out-of-order insertion may recompute
        the smoothing of its in-track successor -- :meth:`track` is
        always the authoritative, currently-smoothed history.
        """
        timestamp_s = float(timestamp_s)
        self.ensure_accepts(client_id, timestamp_s)
        history = self._tracks[client_id]
        index = bisect_right(history, timestamp_s,
                             key=lambda point: point.timestamp_s)
        point = TrackPoint(timestamp_s=timestamp_s,
                           position=estimate.position,
                           smoothed_position=estimate.position,
                           likelihood=estimate.likelihood)
        history.insert(index, point)
        self._resmooth(history, index)
        point = history[index]
        if self.max_history is not None and len(history) > self.max_history:
            del history[:len(history) - self.max_history]
        return point

    def ensure_accepts(self, client_id: str, timestamp_s: float) -> None:
        """Raise if :meth:`update` would refuse a fix at ``timestamp_s``.

        A NaN or infinite timestamp is refused under every policy: it has
        no chronological position, so it would break the time order of
        every later fix.  Otherwise only the ``"reject"`` out-of-order
        policy refuses anything.  The check never mutates the tracker, so
        callers emitting a batch of fixes can validate every client
        *before* committing any of them.
        """
        if not math.isfinite(timestamp_s):
            raise EstimationError(
                f"non-finite fix timestamp {timestamp_s!r} for client "
                f"{client_id!r}")
        if self.on_out_of_order != "reject":
            return
        history = self._tracks.get(client_id)
        if history and float(timestamp_s) <= history[-1].timestamp_s:
            raise EstimationError(
                f"out-of-order fix for client {client_id!r}: timestamp "
                f"{float(timestamp_s)} does not advance the track (latest "
                f"is {history[-1].timestamp_s})")

    def _resmooth(self, history: list[TrackPoint], start: int) -> None:
        """Recompute the EMA chain from ``start`` to the end of the track."""
        alpha = self.smoothing_factor
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
