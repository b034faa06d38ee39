"""The unified ArrayTrack service facade: one object, three workloads.

The paper's system is a *service*: APs stream detections to a central
server that continuously emits location fixes.  :class:`ArrayTrackService`
is that service as a single public object, built from one
:class:`~repro.api.config.ArrayTrackConfig` tree:

* **batch localization** -- :meth:`ArrayTrackService.localize` /
  :meth:`ArrayTrackService.localize_many` are the validated front door of
  the batched synthesis engine (PR 1's
  :class:`~repro.core.batch.BatchLocalizer`);
* **streaming sessions** -- :meth:`ArrayTrackService.ingest` accumulates
  per-client frames into :class:`Session` objects and
  :meth:`ArrayTrackService.tick` drains every *ready* session (every-N-
  frames and/or max-age triggers) through one batched synthesis pass, so
  the streaming path inherits batched throughput and is bit-for-bit
  identical to localizing the same frames in one batch call.  With
  ``session.suppress_multipath`` enabled, a drain first groups each AP's
  pending frames by capture time and runs the Section 2.4 multipath
  suppression per group, feeding the suppressed primaries to the same
  synthesis; every fix lands in the built-in per-client tracker
  (:meth:`ArrayTrackService.track` / :meth:`ArrayTrackService.latest_fix`);
* **AP fleet wiring** -- :meth:`ArrayTrackService.build_ap` constructs
  :class:`~repro.ap.access_point.ArrayTrackAP`\\ s from the config tree's
  ``ap`` section (``ap.spectrum.method`` picks the AoA estimator), so the
  whole deployment is configured from one place.
"""

from __future__ import annotations

import time
from dataclasses import fields, replace
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, NamedTuple, NoReturn

import numpy as np

from repro.ap.access_point import ArrayTrackAP, compute_spectra_across
from repro.ap.buffer import BufferEntry
from repro.ap.latency import LatencyBreakdown, LatencyModel
from repro.array.receiver import SnapshotMatrix
from repro.api._procpool import (PoolStats, ProcessShardPool, SpectraByClient,
                                 TimesByClient, drain_shard, live_segments,
                                 shm_leak_events)
from repro.api._resilience import (CircuitBreaker, ResilienceStats,
                                   backend_ladder)
from repro.api.config import ArrayTrackConfig, SessionConfig
from repro.core.localizer import LocationEstimate
from repro.core.pipeline import SpectrumConfig
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.dtypes import as_float_array
from repro.errors import (BackpressureError, ConfigurationError,
                          PoisonFrameError, TransientError)
from repro.geometry.vector import Point2D
from repro.server.backend import ArrayTrackServer
from repro.server.tracker import ClientTracker, TrackPoint
from repro.testing import faults

__all__ = ["Session", "ArrayTrackService"]


class _PendingCount:
    """Frames pending across a service's sessions.

    The service and each of its sessions share one instance: a session
    adds its buffered frames and subtracts its shed and drained ones, so
    the service-wide backpressure budget stays exact without rescanning
    every session on each ingest, and no session refers back to its
    service (a closed service is freed as soon as its last reference goes).
    """

    __slots__ = ("frames",)

    def __init__(self) -> None:
        self.frames = 0


class _RawFrame(NamedTuple):
    """A screened raw frame whose spectrum is computed at the first read."""

    ap: ArrayTrackAP
    entry: BufferEntry
    #: Shape of the angle grid its spectrum will have.
    grid_shape: tuple[int, ...]


#: A pending frame: a computed spectrum or a raw frame awaiting the frontend.
_Pending = AoASpectrum | _RawFrame


def _grid_shape(frame: _Pending) -> tuple[int, ...]:
    """Shape of the frame's angle grid, computed or still to come."""
    if isinstance(frame, _RawFrame):
        return frame.grid_shape
    return tuple(frame.angles_deg.shape)


def _compute_pending(sessions: Iterable[Session]) -> None:
    """Replace the sessions' pending raw frames by their spectra, in place.

    One :func:`~repro.ap.access_point.compute_spectra_across` pass covers
    every raw frame of every given session.  The sessions change only once
    the whole pass has succeeded.
    """
    slots = [(frames, index, item)
             for session in sessions
             for frames in session._pending.values()
             for index, (_, item) in enumerate(frames)
             if isinstance(item, _RawFrame)]
    if not slots:
        return
    spectra = compute_spectra_across([(raw.ap, raw.entry)
                                      for _, _, raw in slots])
    for (frames, index, _), spectrum in zip(slots, spectra, strict=True):
        frames[index] = (frames[index][0], spectrum)


class Session:
    """One client's streaming state: its pending frames.

    Sessions are created lazily by :meth:`ArrayTrackService.ingest` /
    :meth:`ArrayTrackService.session`; callers never construct them
    directly.  A session accumulates frames per AP -- AoA spectra, or
    screened raw frames whose spectra are computed when first read --
    until one of its configured triggers fires, at which point the
    service drains it through the batched synthesis engine and records
    the fix in the tracker (:meth:`ArrayTrackService.track`,
    :meth:`ArrayTrackService.latest_fix`).
    """

    def __init__(self, client_id: str, config: SessionConfig,
                 pending_count: _PendingCount) -> None:
        self.client_id = client_id
        self.config = config
        #: The owning service's pending-frame count, kept up to date with
        #: this session's buffered, shed and drained frames.
        self._pending_count = pending_count
        #: Pending ``(timestamp, frame)`` pairs per AP, in first-ingest AP
        #: order (this order is what makes a drained session bit-identical
        #: to the same frames passed to
        #: :meth:`ArrayTrackService.localize_many` directly).  A frame is a
        #: spectrum or a raw frame not yet through the frontend.  The
        #: stored timestamp is the ingest-resolved one, which may
        #: legitimately differ from the frame's own.
        self._pending: dict[str, list[tuple[float, _Pending]]] = {}
        self._oldest_pending_s: float | None = None
        #: Timestamp of the most recently ingested frame (simulation time).
        self.last_ingest_s: float | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def pending_frames(self) -> int:
        """Number of frames waiting to be folded into the next fix."""
        return sum(len(frames) for frames in self._pending.values())

    @property
    def pending_aps(self) -> list[str]:
        """APs that contributed at least one pending frame."""
        return [ap_id for ap_id, frames in self._pending.items() if frames]

    @property
    def oldest_pending_s(self) -> float | None:
        """Timestamp of the oldest pending frame (None when empty)."""
        return self._oldest_pending_s

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add(self, ap_id: str, frame: _Pending, timestamp_s: float) -> None:
        """Append one frame (a spectrum or a raw frame) to the pending buffer."""
        self._pending.setdefault(ap_id, []).append((timestamp_s, frame))
        self._pending_count.frames += 1
        if self._oldest_pending_s is None or timestamp_s < self._oldest_pending_s:
            self._oldest_pending_s = timestamp_s
        if self.last_ingest_s is None or timestamp_s > self.last_ingest_s:
            self.last_ingest_s = timestamp_s
        while self.pending_frames > self.config.max_pending_frames:
            self.shed_oldest()

    def shed_oldest(self) -> bool:
        """Drop the oldest pending frame; True if one was dropped.

        Backs both the per-session ``max_pending_frames`` cap and the
        service-level ``resilience.max_total_pending_frames`` budget's
        ``shed-oldest`` policy.  "Oldest" means the smallest
        ingest-resolved timestamp across *all* pending frames -- frames
        may arrive out of timestamp order within one AP (network
        reordering), so every entry is inspected, not just the head of
        each AP's list.
        """
        oldest_ap: str | None = None
        oldest_index = -1
        oldest_ts = float("inf")
        for ap_id, frames in self._pending.items():
            for index, (timestamp, _) in enumerate(frames):
                if timestamp < oldest_ts:
                    oldest_ts = timestamp
                    oldest_ap = ap_id
                    oldest_index = index
        if oldest_ap is None:
            return False
        self._pending[oldest_ap].pop(oldest_index)
        if not self._pending[oldest_ap]:
            del self._pending[oldest_ap]
        self._pending_count.frames -= 1
        remaining = [timestamp for frames in self._pending.values()
                     for timestamp, _ in frames]
        self._oldest_pending_s = min(remaining) if remaining else None
        return True

    # ------------------------------------------------------------------
    # Triggers and draining
    # ------------------------------------------------------------------
    def ready(self, now_s: float | None = None) -> bool:
        """True when a configured trigger fires for the pending frames.

        ``now_s`` anchors the max-age trigger; when omitted, the latest
        ingested timestamp stands in (pure simulation-time semantics, no
        wall clock involved).
        """
        if self.pending_frames == 0:
            return False
        config = self.config
        if config.emit_every_frames \
                and self.pending_frames >= config.emit_every_frames:
            return True
        if config.max_age_s is not None and self._oldest_pending_s is not None:
            now = now_s if now_s is not None else self.last_ingest_s
            if now is not None and now - self._oldest_pending_s >= config.max_age_s:
                return True
        return False

    def pending_spectra(self) -> dict[str, list[AoASpectrum]]:
        """Return the pending per-AP spectra without removing them.

        Pending raw frames are computed first, all in one stacked
        frontend pass, and kept as spectra.
        """
        _compute_pending([self])
        return {ap_id: [spectrum for _, spectrum in frames]  # type: ignore[misc]
                for ap_id, frames in self._pending.items()}

    def pending_times(self) -> dict[str, list[float]]:
        """Return the pending frames' per-AP timestamps, without removing them.

        The timestamps are the ingest-resolved ones (which the multipath
        suppression stage groups on), in the order of
        :meth:`pending_spectra`.
        """
        return {ap_id: [timestamp for timestamp, _ in frames]
                for ap_id, frames in self._pending.items()}

    def pending_grid_shape(self, ap_id: str) -> tuple[int, ...] | None:
        """Angle-grid shape of this AP's pending frames (None when empty).

        The poison-frame gate compares arriving frames against this: all
        of one AP's frames in a drain are stacked into one matrix, so a
        mismatched grid would fail deep inside the synthesis pass instead
        of at the door.
        """
        frames = self._pending.get(ap_id)
        if not frames:
            return None
        return _grid_shape(frames[0][1])

    def drain(self) -> None:
        """Discard the pending frames (read them first with
        :meth:`pending_spectra`)."""
        self._pending_count.frames -= self.pending_frames
        self._pending = {}
        self._oldest_pending_s = None


class ArrayTrackService:
    """The public facade over the whole ArrayTrack pipeline.

    Parameters
    ----------
    config:
        The service configuration tree; documented defaults when omitted.
    bounds:
        Convenience override for ``config.bounds`` (one of the two must
        be set).
    latency_model:
        Hardware latency model used to annotate fixes; a WARP-like
        default when omitted.

    Examples
    --------
    One-shot localization from collected spectra::

        from repro import ArrayTrackConfig, ArrayTrackService

        service = ArrayTrackService(ArrayTrackConfig(bounds=testbed.bounds))
        estimate = service.localize(spectra_by_ap, "client-17")

    Streaming fixes::

        for spectrum in incoming_frames:
            service.ingest(spectrum.ap_id, spectrum)
        fixes = service.tick()          # {client_id: LocationEstimate}
    """

    def __init__(self, config: ArrayTrackConfig | None = None, *,
                 bounds: Sequence[float] | None = None,
                 latency_model: LatencyModel | None = None) -> None:
        config = config if config is not None else ArrayTrackConfig()
        if bounds is not None:
            config = replace(config, bounds=tuple(bounds))
        if config.bounds is None:
            raise ConfigurationError(
                "ArrayTrackService needs a search area: set "
                "ArrayTrackConfig.bounds or pass bounds=(xmin, ymin, xmax, ymax)")
        self.config = config
        self._server = ArrayTrackServer(config.bounds, config.server,
                                        latency_model)
        self.tracker: ClientTracker = config.tracker.build()
        #: The streaming suppression stage (SuppressorConfig *is* the
        #: suppressor dataclass, so the config section is used directly).
        self._suppressor = config.suppressor
        self._sessions: dict[str, Session] = {}
        self._aps: dict[str, ArrayTrackAP] = {}
        #: Lazily created worker pool of the ``parallel`` config section.
        self._procpool: ProcessShardPool | None = None
        self._closed = False
        #: The resilience layer: degradation ladder + breaker, service
        #: counters, and the exact count of frames pending across all
        #: sessions (each session updates the shared count itself).
        self._ladder = backend_ladder(config.parallel.backend)
        self._breaker = CircuitBreaker(
            self._ladder,
            threshold=config.resilience.breaker_threshold,
            recovery_s=config.resilience.breaker_recovery_s)
        self._resilience_stats = ResilienceStats()
        self._pending_count = _PendingCount()
        if config.resilience.fault_plan is not None:
            faults.activate_json(config.resilience.fault_plan)

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  **kwargs: Any) -> "ArrayTrackService":
        """Build a service from a plain config mapping."""
        return cls(ArrayTrackConfig.from_dict(data), **kwargs)

    @classmethod
    def from_json(cls, text: str, **kwargs: Any) -> "ArrayTrackService":
        """Build a service from a JSON config document."""
        return cls(ArrayTrackConfig.from_json(text), **kwargs)

    @classmethod
    def from_file(cls, path: str, **kwargs: Any) -> "ArrayTrackService":
        """Build a service from a JSON config file."""
        return cls(ArrayTrackConfig.from_file(path), **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """Search-area bounds in metres."""
        assert self.config.bounds is not None
        return self.config.bounds

    @property
    def spectrum_config(self) -> SpectrumConfig:
        """The per-frame spectrum config every built AP runs."""
        return self.config.ap.spectrum

    @property
    def server(self) -> ArrayTrackServer:
        """The underlying central server (advanced use)."""
        return self._server

    # ------------------------------------------------------------------
    # AP fleet wiring
    # ------------------------------------------------------------------
    def build_ap(self, ap_id: str, position: Point2D,
                 orientation_deg: float = 0.0,
                 rng: np.random.Generator | None = None) -> ArrayTrackAP:
        """Construct (and register) one AP from the config tree's ``ap`` section.

        Each AP gets its own copy of the section (nested spectrum config
        included), so tweaking one AP's configuration afterwards never
        leaks into the service config or its siblings.
        """
        ap_config = replace(self.config.ap,
                            spectrum=replace(self.config.ap.spectrum))
        ap = ArrayTrackAP(ap_id, position, orientation_deg,
                          config=ap_config, rng=rng)
        self._aps[ap_id] = ap
        return ap

    def adopt_aps(self, aps: Iterable[ArrayTrackAP]) -> None:
        """Register externally constructed APs (e.g. a simulated deployment's).

        Raises
        ------
        ConfigurationError
            If an AP's spectrum configuration differs from the tree's
            ``ap.spectrum`` section, naming the first differing leaf; no
            AP is registered then.
        """
        aps = list(aps)
        expected = self.config.ap.spectrum
        for ap in aps:
            for leaf in fields(SpectrumConfig):
                own = getattr(ap.config.spectrum, leaf.name)
                wanted = getattr(expected, leaf.name)
                if own != wanted:
                    raise ConfigurationError(
                        f"AP {ap.ap_id!r} runs ap.spectrum.{leaf.name}="
                        f"{own!r} but this service's config sets {wanted!r}: "
                        f"build the AP with build_ap(), or load the service "
                        f"with the AP's spectrum section")
        for ap in aps:
            self._aps[ap.ap_id] = ap

    @property
    def aps(self) -> dict[str, ArrayTrackAP]:
        """The registered AP fleet, by AP id (a copy)."""
        return dict(self._aps)

    # ------------------------------------------------------------------
    # Sharded parallel execution (the ``parallel`` config section)
    # ------------------------------------------------------------------
    def _shards(self, keys: Sequence[str]) -> list[list[str]] | None:
        """Split client keys into contiguous worker shards, or None.

        Returns None when the configured backend is ``none`` or the batch
        is too small to win from fanning out (fewer than two shards of
        ``min_clients_per_worker`` clients each).  Contiguous slicing keeps
        the merged result in the caller's original client order.
        """
        parallel = self.config.parallel
        if parallel.backend != "process":
            return None
        num_shards = min(parallel.num_workers,
                         len(keys) // parallel.min_clients_per_worker)
        if num_shards < 2:
            return None
        bounds = np.linspace(0, len(keys), num_shards + 1).astype(int)
        return [list(keys[start:stop])
                for start, stop in zip(bounds[:-1], bounds[1:], strict=True)
                if stop > start]

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "this ArrayTrackService is closed (its worker pool is "
                "shut down); build a new service instead of reusing it")

    def _process_pool(self) -> ProcessShardPool:
        if self._procpool is None:
            warm = [(ap.position.x, ap.position.y)
                    for ap in self._aps.values()]
            self._procpool = ProcessShardPool(self.config,
                                              warm_positions=warm)
        return self._procpool

    def _drain(self, spectra_by_client: SpectraByClient,
               stream_times: TimesByClient | None
               ) -> dict[str, LocationEstimate]:
        """Serve one batch down the degradation ladder.

        A batch that shards enters at the rung the circuit breaker picks:
        the process pool while closed or half-open, serial while open.  A
        process pass that fails with a
        :class:`~repro.errors.TransientError` counts against the breaker
        and the batch *immediately* falls to the serial rung -- a batch
        that serial execution could serve is never failed; a pool that
        failed is respawned by the next sharded call.  Non-transient errors
        (deterministic data problems) propagate: degrading those would
        re-fail identically.  Both rungs run :func:`drain_shard`, so the
        result is bit-for-bit the same wherever the batch lands.  The
        process pass is recorded whole as the server's processing time,
        since each shard's own measurement covers only that shard.
        """
        shards = self._shards(list(spectra_by_client))
        if shards is not None and self._breaker.entry_index() == 0:
            start = time.perf_counter()
            try:
                estimates = self._process_pool().localize_shards(
                    shards, spectra_by_client, stream_times)
            except TransientError as exc:
                self._breaker.record_failure()
                self._resilience_stats.record_fallback("serial", exc)
            else:
                self._server.record_processing_time(
                    time.perf_counter() - start)
                self._breaker.record_success()
                return estimates
        return drain_shard(self._server, self._suppressor,
                           spectra_by_client, stream_times)

    def close(self) -> None:
        """Shut down the worker pool and mark the service closed.

        Idempotent.  After ``close()`` the localization entry points
        (:meth:`localize`, :meth:`localize_many`,
        :meth:`localize_buffered`, :meth:`tick`, :meth:`flush`) raise
        :class:`~repro.errors.ConfigurationError` instead of silently
        rebuilding the pool -- a rebuilt pool would re-spawn workers,
        which is far too expensive to happen by accident.  Build a new
        service to continue.
        """
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None
        self._closed = True

    def __enter__(self) -> "ArrayTrackService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch localization
    # ------------------------------------------------------------------
    def localize(self, spectra_by_ap: Mapping[str, Sequence[AoASpectrum]],
                 client_id: str = "") -> LocationEstimate:
        """Localize one client from per-AP lists of AoA spectra.

        A batch of one through :meth:`localize_many`.
        """
        return self.localize_many({client_id: spectra_by_ap})[client_id]

    def localize_many(self,
                      spectra_by_client: Mapping[str, Mapping[str, Sequence[AoASpectrum]]]
                      ) -> dict[str, LocationEstimate]:
        """Localize many clients in one vectorized synthesis pass.

        With ``parallel.backend="process"`` and a large enough batch, the
        clients are split into contiguous shards and each shard's
        suppression + synthesis runs in a worker process (spectra travel
        through shared memory); results are bit-for-bit identical to the
        serial path either way.
        """
        self._ensure_open()
        return self._drain(spectra_by_client, None)

    def localize_buffered(self, client_ids: Sequence[str],
                          aps: Sequence[ArrayTrackAP] | None = None
                          ) -> dict[str, LocationEstimate]:
        """Batch-localize clients from frames buffered at the AP fleet.

        Uses the registered fleet when ``aps`` is omitted.  Shards across
        the worker pool exactly like :meth:`localize_many`.
        """
        self._ensure_open()
        fleet = list(aps) if aps is not None else list(self._aps.values())
        return self.localize_many(
            self._server.collect_buffered(fleet, list(client_ids)))

    # ------------------------------------------------------------------
    # Streaming sessions
    # ------------------------------------------------------------------
    def session(self, client_id: str) -> Session:
        """Return (creating if needed) the client's streaming session."""
        if not client_id:
            raise ConfigurationError("a session needs a non-empty client id")
        existing = self._sessions.get(client_id)
        if existing is None:
            existing = Session(client_id, self.config.session,
                               self._pending_count)
            self._sessions[client_id] = existing
        return existing

    @property
    def sessions(self) -> dict[str, Session]:
        """All live sessions, by client id (a copy)."""
        return dict(self._sessions)

    def ingest(self, ap: str | ArrayTrackAP | None,
               item: AoASpectrum | BufferEntry,
               client_id: str | None = None,
               timestamp_s: float | None = None) -> Session:
        """Accumulate one frame into the client's streaming session.

        A batch of one through :meth:`ingest_many`.

        Parameters
        ----------
        ap:
            The receiving AP: an AP id, a registered/constructed
            :class:`~repro.ap.access_point.ArrayTrackAP`, or None when the
            spectrum itself carries its ``ap_id``.
        item:
            Either a computed :class:`~repro.core.spectrum.AoASpectrum`,
            or a raw :class:`~repro.ap.buffer.BufferEntry` (a detected
            packet's snapshots), in which case the capturing AP computes
            the spectrum -- so callers can stream either processed spectra
            or raw detections.
        client_id:
            Client identity; defaults to the frame's own ``client_id``.
        timestamp_s:
            Frame time; defaults to the frame's own ``timestamp_s``.

        Returns
        -------
        Session
            The client's session (``session.ready()`` tells whether the
            next :meth:`tick` will emit a fix for it).
        """
        return self.ingest_many(ap, [item], client_id, timestamp_s)[0]

    def ingest_many(self, ap: str | ArrayTrackAP | None,
                    items: Sequence[AoASpectrum | BufferEntry],
                    client_id: str | None = None,
                    timestamp_s: float | None = None) -> list[Session]:
        """Screen and buffer many frames of one AP in a single call.

        Already-computed :class:`~repro.core.spectrum.AoASpectrum` items
        and raw :class:`~repro.ap.buffer.BufferEntry` items are screened
        together, and the call is admitted or refused whole.  Raw entries
        are buffered as they are, with their AP: their spectra are
        computed when first read (:meth:`tick`, :meth:`flush` or
        :meth:`Session.pending_spectra`), in one stacked Section 2.3 pass
        across every AP and session being read.  Every frame is fed into
        its client's session in input order.

        Parameters
        ----------
        ap:
            The receiving AP, as in :meth:`ingest`; raw buffer entries
            require a resolvable :class:`~repro.ap.access_point.ArrayTrackAP`.
        items:
            The frames, in arrival order: spectra and/or raw buffer entries.
        client_id, timestamp_s:
            Optional overrides applied to every frame, as in :meth:`ingest`.

        Returns
        -------
        list of Session
            The per-frame sessions, in input order (one client streaming a
            burst yields the same session object repeated).

        Raises
        ------
        PoisonFrameError
            If a frame holds non-finite values (raw samples, their energy,
            spectrum power or angles, timestamps) or an angle grid that
            contradicts the client's other frames at this AP.
        EstimationError
            If a raw entry's snapshot matrix does not fit the AP's array,
            has zero sample energy, or has too little power for the Capon
            estimator.
        """
        items = [faults.poison(item)
                 if isinstance(item, (AoASpectrum, BufferEntry)) else item
                 for item in items]
        entries = [item for item in items if isinstance(item, BufferEntry)]
        if entries:
            ap_obj = self._resolve_ap(ap)
            if ap_obj is None:
                raise ConfigurationError(
                    f"ingesting raw BufferEntries needs their capturing AP, "
                    f"but {ap!r} is not a registered AP (the first "
                    f"BufferEntry is from client {entries[0].client_id!r}): "
                    f"pass the ArrayTrackAP object, or register it first via "
                    f"build_ap()/adopt_aps()")
            self._screen_entries(entries, ap_obj)
            grid_shape = default_angle_grid(
                ap_obj.config.spectrum.angle_resolution_deg).shape
            items = [_RawFrame(ap_obj, item, grid_shape)
                     if isinstance(item, BufferEntry) else item
                     for item in items]
        resolved_frames = [self._resolve_frame(ap, item, client_id,
                                               timestamp_s)
                           for item in items]
        if resolved_frames:
            # Validate the whole batch before touching any session, so one
            # poison frame rejects the call atomically -- no session ends
            # up holding half a burst.
            self._screen_frames(resolved_frames)
        sessions: list[Session] = []
        for resolved_client, ap_id, frame, resolved_ts in resolved_frames:
            session = self.session(resolved_client)
            self._admit(session, ap_id, frame, resolved_ts)
            sessions.append(session)
        return sessions

    def _resolve_ap(self, ap: str | ArrayTrackAP | None
                    ) -> ArrayTrackAP | None:
        """Resolve an AP argument to a registered ArrayTrackAP, if possible."""
        if isinstance(ap, ArrayTrackAP):
            return ap
        if ap is not None:
            return self._aps.get(str(ap))
        return None

    @staticmethod
    def _resolve_frame(ap: str | ArrayTrackAP | None, item: object,
                       client_id: str | None, timestamp_s: float | None
                       ) -> tuple[str, str, _Pending, float]:
        """Return one item's ``(client id, AP id, pending frame, timestamp)``.

        A raw frame falls back on the client id, AP id and timestamp of its
        snapshots, which its spectrum will carry.
        """
        own: AoASpectrum | SnapshotMatrix
        if isinstance(item, _RawFrame):
            own = item.entry.snapshots
        elif isinstance(item, AoASpectrum):
            own = item
        else:
            raise ConfigurationError(
                f"cannot ingest a {type(item).__name__}; expected an "
                f"AoASpectrum or a BufferEntry")
        if isinstance(ap, ArrayTrackAP):
            ap_id = ap.ap_id
        elif ap is not None:
            ap_id = str(ap)
        else:
            ap_id = own.ap_id
        if not ap_id:
            raise ConfigurationError(
                "cannot ingest a spectrum without an AP id (pass ap= or "
                "use spectra that carry one)")
        resolved_client = client_id if client_id else own.client_id
        if not resolved_client:
            raise ConfigurationError(
                "cannot ingest a frame without a client id (pass "
                "client_id= or use spectra that carry one)")
        resolved_ts = timestamp_s if timestamp_s is not None \
            else own.timestamp_s
        return resolved_client, ap_id, item, resolved_ts

    # ------------------------------------------------------------------
    # Admission control (the ``resilience`` config section)
    # ------------------------------------------------------------------
    def _screen_entries(self, entries: Sequence[BufferEntry],
                        ap: ArrayTrackAP) -> None:
        """Reject raw buffer entries whose frontend pass would fail.

        Raw entries are screened, not computed, at ingest.  Each entry's
        sample energy (the sum of its squared magnitudes) must be finite:
        that refuses NaN or infinite samples and finite samples so large
        that the covariance overflows, under every estimator.  The error
        names the first offending entry in input order.  Then the AP's
        own checks run (:meth:`~repro.ap.access_point.ArrayTrackAP.
        screen_entries`).
        """
        energy = np.array([np.vdot(entry.snapshots.samples,
                                   entry.snapshots.samples).real
                           for entry in entries])
        bad = ~np.isfinite(energy)
        if bad.any():
            entry = entries[int(bad.argmax())]
            reason = ("non-finite snapshot samples"
                      if not np.isfinite(entry.snapshots.samples).all()
                      else "snapshot sample energy overflows")
            self._reject(f"rejecting raw frame from client "
                         f"{entry.client_id!r} at AP {ap.ap_id!r}: {reason}")
        ap.screen_entries(entries)

    def _screen_frames(self, frames: Sequence[tuple[str, str, _Pending,
                                                    float]]) -> None:
        """Reject a batch holding a frame that would poison a stacked pass.

        Two gates: non-finite values (NaN/inf power or angles of a
        spectrum -- legal by :class:`~repro.core.spectrum.AoASpectrum`
        construction, since its non-negativity check is False for NaN --
        or a NaN/inf timestamp, the frame's own or the ``timestamp_s`` it
        was ingested under, which would break the triggers, the tracker's
        time order and suppression's time grouping), and an angle-grid
        shape that contradicts the client's pending frames at the same AP
        or an earlier frame of the same batch.  The values of the whole
        batch are checked at once; the error names the first offending
        frame in input order, and within a frame the first failing gate in
        the order timestamp, power, angles, grid shape.  A raw frame's
        samples were screened already, and its grid shape is the one its
        AP's spectrum configuration gives.
        """
        own_times = [frame.entry.snapshots.timestamp_s
                     if isinstance(frame, _RawFrame) else frame.timestamp_s
                     for _, _, frame, _ in frames]
        bad_time = ~np.isfinite(as_float_array(
            [(timestamp, own) for (_, _, _, timestamp), own
             in zip(frames, own_times, strict=True)])).all(axis=1)
        spectra = [frame for _, _, frame, _ in frames
                   if isinstance(frame, AoASpectrum)]
        bad_power = np.zeros(len(frames), dtype=bool)
        bad_angles = np.zeros(len(frames), dtype=bool)
        if spectra:
            rows = [index for index, (_, _, frame, _) in enumerate(frames)
                    if isinstance(frame, AoASpectrum)]
            bad_power[rows] = _nonfinite([spectrum.power
                                          for spectrum in spectra])
            bad_angles[rows] = _nonfinite([spectrum.angles_deg
                                           for spectrum in spectra])
        bad = bad_time | bad_power | bad_angles
        first_bad = int(bad.argmax()) if bad.any() else len(frames)
        batch_shapes: dict[tuple[str, str], tuple[int, ...]] = {}
        for client_id, ap_id, frame, _ in frames[:first_bad]:
            shape = _grid_shape(frame)
            key = (client_id, ap_id)
            expected = batch_shapes.get(key)
            if expected is None:
                session = self._sessions.get(client_id)
                expected = None if session is None \
                    else session.pending_grid_shape(ap_id)
            if expected is not None and shape != expected:
                self._reject(f"rejecting frame from client {client_id!r} at "
                             f"AP {ap_id!r}: angle-grid shape {shape} "
                             f"contradicts the client's other frames at this "
                             f"AP {expected}")
            batch_shapes[key] = shape
        if first_bad < len(frames):
            client_id, ap_id, _, _ = frames[first_bad]
            reason = ("non-finite timestamp" if bad_time[first_bad]
                      else "non-finite power values" if bad_power[first_bad]
                      else "non-finite angle-grid values")
            self._reject(f"rejecting frame from client {client_id!r} at AP "
                         f"{ap_id!r}: {reason}")

    def _reject(self, message: str) -> NoReturn:
        """Count one rejected call and raise its poison-frame error."""
        self._resilience_stats.poison_rejected += 1
        raise PoisonFrameError(message)

    def _admit(self, session: Session, ap_id: str, frame: _Pending,
               timestamp_s: float) -> None:
        """Buffer one validated frame, enforcing the service-wide budget."""
        budget = self.config.resilience.max_total_pending_frames
        if budget is not None and self._pending_count.frames >= budget:
            if self.config.resilience.shed_policy == "reject":
                self._resilience_stats.backpressure_rejected += 1
                raise BackpressureError(
                    f"service pending-frame budget is full "
                    f"({self._pending_count.frames}/{budget} frames); rejecting "
                    f"frame from client {session.client_id!r} "
                    f"(shed_policy='reject')")
            self._shed_for(session, budget)
        session.add(ap_id, frame, timestamp_s)

    def _shed_for(self, session: Session, budget: int) -> None:
        """Make room under the budget: ingesting client's own oldest
        pending frame goes first (per-client fairness), falling back to
        the session holding the globally oldest frame."""
        while self._pending_count.frames >= budget:
            victim: Session | None = \
                session if session.pending_frames else None
            if victim is None:
                candidates = [other for other in self._sessions.values()
                              if other.pending_frames]
                if not candidates:
                    break
                victim = min(
                    candidates,
                    key=lambda other: other.oldest_pending_s
                    if other.oldest_pending_s is not None else float("inf"))
            if not victim.shed_oldest():
                break
            self._resilience_stats.shed_frames += 1

    def health(self) -> dict[str, Any]:
        """A JSON-safe snapshot of the service's resilience state.

        Schema (see ``docs/robustness.md``): ``closed`` (bool);
        ``backend`` (``configured`` backend and the ladder rung batches
        currently enter at); ``breaker`` (the
        :meth:`~repro.api._resilience.CircuitBreaker.snapshot` dict);
        ``pool`` (``started`` plus the pool's failure counters and the
        module-wide shm accounting); ``ingest`` (pending frames vs budget
        and the shed/reject counters); ``fallbacks`` (batches served per
        degraded rung and the last transient error); ``sessions`` (live
        session count).
        """
        stats = self._resilience_stats
        pool = self._procpool
        pool_health: dict[str, Any] = {
            "started": pool.started if pool is not None else False}
        pool_health.update(pool.stats.snapshot() if pool is not None
                           else PoolStats().snapshot())
        return {
            "closed": self._closed,
            "backend": {
                "configured": self.config.parallel.backend,
                "active": self._ladder[self._breaker.entry_index()],
            },
            "breaker": self._breaker.snapshot(),
            "pool": {
                **pool_health,
                "shm_leak_events": shm_leak_events(),
                "live_segments": sorted(live_segments()),
            },
            "ingest": {
                "pending_frames": self._pending_count.frames,
                "pending_budget":
                    self.config.resilience.max_total_pending_frames,
                "shed_frames": stats.shed_frames,
                "backpressure_rejected": stats.backpressure_rejected,
                "poison_rejected": stats.poison_rejected,
            },
            "fallbacks": {
                "served_by": dict(stats.fallbacks),
                "last_error": stats.last_fallback_error,
            },
            "sessions": len(self._sessions),
        }

    def tick(self, now_s: float | None = None
             ) -> dict[str, LocationEstimate]:
        """Drain every ready session through one batched synthesis pass.

        Returns one fix per ready client (empty dict when no trigger has
        fired).  With the suppression stage off (the
        ``session.suppress_multipath`` default), fixes are bit-for-bit
        identical to passing the same pending frames to
        :meth:`localize_many` in one batch; with it on, each AP's frames
        are first grouped by capture time and suppressed per group.
        """
        self._ensure_open()
        ready = {client_id: session
                 for client_id, session in self._sessions.items()
                 if session.ready(now_s)}
        return self._emit(ready, now_s)

    def flush(self) -> dict[str, LocationEstimate]:
        """Drain every session with pending frames, triggers or not."""
        self._ensure_open()
        pending = {client_id: session
                   for client_id, session in self._sessions.items()
                   if session.pending_frames}
        return self._emit(pending, None)

    def _emit(self, sessions: Mapping[str, Session],
              now_s: float | None) -> dict[str, LocationEstimate]:
        if not sessions:
            return {}
        # Peek first, drain only after a successful synthesis: a failing
        # batch (e.g. a spectrum without its AP position) must not destroy
        # every drained client's pending frames.  On such an error the
        # exception propagates with all sessions intact; the caller can
        # discard a poisoned session explicitly via session.drain().
        # Sessions are only read here, and the tracker commit below stays
        # on the calling thread.  Every drained session's raw frames go
        # through one stacked frontend pass first.
        _compute_pending(sessions.values())
        estimates = self._drain(
            {client_id: session.pending_spectra()
             for client_id, session in sessions.items()},
            {client_id: session.pending_times()
             for client_id, session in sessions.items()}
            if self.config.session.suppress_multipath else None)
        timestamps: dict[str, float] = {}
        for client_id in estimates:
            session = sessions[client_id]
            timestamps[client_id] = now_s if now_s is not None else \
                (session.last_ingest_s if session.last_ingest_s is not None
                 else 0.0)
            # Validate every client against the tracker's out-of-order
            # policy BEFORE committing anything: a rejected fix must leave
            # all sessions and the tracker untouched.
            self.tracker.ensure_accepts(client_id, timestamps[client_id])
        fixes: dict[str, LocationEstimate] = {}
        for client_id, estimate in estimates.items():
            self.tracker.update(client_id, estimate, timestamps[client_id])
            sessions[client_id].drain()
            fixes[client_id] = estimate
        return fixes

    # ------------------------------------------------------------------
    # Client tracks
    # ------------------------------------------------------------------
    def track(self, client_id: str) -> list[TrackPoint]:
        """Return the client's emitted fixes as track points (oldest first).

        The points carry both the raw and the EMA-smoothed positions, per
        the ``tracker`` config section.
        """
        return self.tracker.track(client_id)

    def latest_fix(self, client_id: str) -> TrackPoint | None:
        """Return the most recently emitted fix for the client, or None."""
        return self.tracker.latest(client_id)

    # ------------------------------------------------------------------
    # Latency accounting passthrough (Section 4.4)
    # ------------------------------------------------------------------
    @property
    def last_processing_s(self) -> float | None:
        """Wall-clock time of the latest synthesis pass (None before any)."""
        return self._server.last_processing_s

    def latency_breakdown(self, payload_bytes: int = 1500,
                          bitrate_mbps: float = 54.0,
                          use_measured_processing: bool = False
                          ) -> LatencyBreakdown:
        """Return the end-to-end latency breakdown of a fix."""
        return self._server.latency_breakdown(payload_bytes, bitrate_mbps,
                                              use_measured_processing)


def _nonfinite(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Whether each array holds a NaN or an infinity, from one check."""
    finite = np.isfinite(np.concatenate(arrays, axis=None))
    if finite.all():
        return np.zeros(len(arrays), dtype=bool)
    sizes = np.array([array.size for array in arrays])
    seen = np.concatenate(([0], np.cumsum(~finite)))
    ends = np.cumsum(sizes)
    return seen[ends] > seen[ends - sizes]
