"""The central ArrayTrack server: location synthesis and latency accounting.

Figure 1 splits the system into per-AP functionality (detection, diversity
synthesis, buffering) and server functionality (AoA spectrum computation,
multipath suppression, maximum-likelihood position estimation).  In this
library the spectrum computation lives with the AP object for convenience,
and the Section 2.4 step that picks each AP's spectra lives with the
service: :func:`repro.api._procpool.drain_shard` is the one place that
groups and suppresses a client's per-AP frames, on every backend rung.
The :class:`ArrayTrackServer` holds what is left below it:

* gather the frames buffered at a fleet of APs
  (:meth:`ArrayTrackServer.collect_buffered`);
* synthesize the chosen spectra of many clients into fixes in one
  :class:`~repro.core.batch.BatchLocalizer` pass (Section 2.5,
  :meth:`ArrayTrackServer.synthesize_batch`);
* account for the end-to-end latency of the fix (Section 4.4).

Applications reach this backend through
:class:`repro.api.ArrayTrackService`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.errors import ConfigurationError, EstimationError
from repro.ap.access_point import ArrayTrackAP, compute_spectra_across
from repro.ap.buffer import BufferEntry
from repro.ap.latency import LatencyBreakdown, LatencyModel
from repro.core.batch import BatchLocalizer
from repro.core.localizer import LocalizerConfig, LocationEstimate
from repro.core.spectrum import AoASpectrum

__all__ = ["ServerConfig", "ArrayTrackServer"]


@dataclass
class ServerConfig:
    """Configuration of the central server.

    Attributes
    ----------
    localizer:
        Grid/hill-climbing configuration of the position estimator.
    enable_multipath_suppression:
        On the batch path (``localize_many``, ``localize_buffered``, and
        ``tick`` with ``session.suppress_multipath`` off), run the Section
        2.4 algorithm on an AP's frames when a client has at least two
        there, grouped on each spectrum's own ``timestamp_s``, and fold the
        earliest group's primary.  The service tree's top-level
        ``suppressor`` section sets the algorithm's parameters.

    The server always records the wall-clock time of its latest synthesis
    (:attr:`ArrayTrackServer.last_processing_s`), which the latency
    experiment substitutes for the paper's Matlab processing figure.
    """

    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    enable_multipath_suppression: bool = True


class ArrayTrackServer:
    """Aggregates AoA spectra from many APs and produces location fixes.

    Parameters
    ----------
    bounds:
        ``(xmin, ymin, xmax, ymax)`` search area (the floorplan bounding box).
    config:
        Server configuration; the defaults follow the paper.
    latency_model:
        Hardware latency model used to annotate fixes; a default WARP-like
        model is used when omitted.
    """

    def __init__(self, bounds: tuple[float, float, float, float],
                 config: ServerConfig | None = None,
                 latency_model: LatencyModel | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.bounds = tuple(float(value) for value in bounds)
        self.localizer = BatchLocalizer(bounds, self.config.localizer)
        self.latency_model = latency_model if latency_model is not None else LatencyModel()
        self._last_processing_s: float | None = None

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    def synthesize_batch(self,
                         spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                         ) -> dict[str, LocationEstimate]:
        """Synthesize already-chosen spectra into one fix per client.

        The Equation 8 fold and hill climb of
        :meth:`~repro.core.batch.BatchLocalizer.estimate_batch`, timed so
        :meth:`latency_breakdown` can substitute the measured processing
        time.  The spectra enter exactly as given: picking them (Section
        2.4) is :func:`repro.api._procpool.drain_shard`'s job.

        Parameters
        ----------
        spectra_by_client:
            For every client id, the flat list of spectra entering the
            synthesis (typically one suppressed primary per AP and burst).

        Raises
        ------
        EstimationError
            If the batch is empty or any client contributes no spectra.
        """
        start = time.perf_counter()
        estimates = self.localizer.estimate_batch(spectra_by_client)
        self._last_processing_s = time.perf_counter() - start
        return estimates

    # ------------------------------------------------------------------
    # AP-level API
    # ------------------------------------------------------------------
    def collect_buffered(self, aps: Sequence[ArrayTrackAP],
                         client_ids: Sequence[str]
                         ) -> dict[str, dict[str, list[AoASpectrum]]]:
        """Gather the buffered per-AP spectra of every requested client.

        The collection half of
        :meth:`repro.api.ArrayTrackService.localize_buffered`, which then
        localizes the result like any ``localize_many`` batch.  Every
        requested client's pending frames at every AP go through one
        cross-AP Section 2.3 frontend pass
        (:func:`~repro.ap.access_point.compute_spectra_across`), so a
        buffered sweep costs one stacked covariance/eigh/projection sweep
        per frontend key rather than one per AP or per frame.  Clients no
        AP currently holds frames for are omitted from the result.

        Raises
        ------
        ConfigurationError
            If ``aps`` is empty.
        EstimationError
            If none of the requested clients has any buffered frames.
        """
        if not aps:
            raise ConfigurationError("need at least one AP to localize")
        frames: list[tuple[ArrayTrackAP, BufferEntry]] = []
        # (client id, AP id, frame count) per non-empty buffer slice.
        slices: list[tuple[str, str, int]] = []
        for client_id in client_ids:
            for ap in aps:
                entries = ap.buffer.entries_for_client(client_id)
                if entries:
                    slices.append((client_id, ap.ap_id, len(entries)))
                    frames.extend((ap, entry) for entry in entries)
        if not slices:
            raise EstimationError(
                "none of the requested clients has any buffered frames")
        spectra = compute_spectra_across(frames)
        spectra_by_client: dict[str, dict[str, list[AoASpectrum]]] = {}
        cursor = 0
        for client_id, ap_id, count in slices:
            spectra_by_client.setdefault(client_id, {})[ap_id] = \
                spectra[cursor:cursor + count]
            cursor += count
        return spectra_by_client

    # ------------------------------------------------------------------
    # Latency accounting (Section 4.4)
    # ------------------------------------------------------------------
    @property
    def last_processing_s(self) -> float | None:
        """Wall-clock time of the latest synthesis step (None before any)."""
        return self._last_processing_s

    def record_processing_time(self, seconds: float) -> None:
        """Overwrite the measured processing time of the most recent fix.

        Used by the service facade's sharded execution: each shard's own
        measurement covers only that shard, so after a parallel pass the
        facade records the wall-clock duration of the *whole* batch here,
        keeping :meth:`latency_breakdown` meaningful.
        """
        self._last_processing_s = float(seconds)

    def latency_breakdown(self, payload_bytes: int = 1500,
                          bitrate_mbps: float = 54.0,
                          use_measured_processing: bool = False) -> LatencyBreakdown:
        """Return the latency breakdown of a fix for a given frame size/rate.

        Parameters
        ----------
        use_measured_processing:
            Substitute the wall-clock time of the most recent fix for the
            paper's 100 ms Matlab processing figure.
        """
        model = self.latency_model
        if use_measured_processing and self._last_processing_s is not None:
            model = LatencyModel(
                num_snapshots=model.num_snapshots,
                num_radios=model.num_radios,
                link_throughput_bps=model.link_throughput_bps,
                bus_latency_s=model.bus_latency_s,
                processing_s=self._last_processing_s,
                bits_per_sample=model.bits_per_sample,
            )
        return model.breakdown(payload_bytes, bitrate_mbps)
