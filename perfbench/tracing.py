"""Outside-in span tracing of the ArrayTrack layers.

:func:`installed` wraps public functions of each layer -- service, server,
Section 2.3 frontend, Section 2.4 suppression, Section 2.5 synthesis,
tracker and process pool -- from this package, without touching the
program.  Each wrapper records one span per call (name, start, end, parent
span, and the index of the workload call that caused it) and bumps the
layer's work counters.  Functions are wrapped where their callers look
them up: a function imported into another module by name is patched in
that module, so only the named call path is attributed to the span.

Stages that run inside spawned pool workers are out of reach of these
wrappers; they show only as the parent-side ``pool`` span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.api import ArrayTrackService
from repro.api._procpool import ProcessShardPool
from repro.core import batch, music, pipeline, suppression
from repro.core.batch import BatchLocalizer
from repro.core.pipeline import SpectrumComputer
from repro.core.suppression import MultipathSuppressor
from repro.core.symmetry import SymmetryResolver
from repro.server.backend import ArrayTrackServer
from repro.server.tracker import ClientTracker

#: Every span name, in pipeline order.
SPANS = (
    "service.ingest", "service.tick", "service.localize", "service.sweep",
    "server.collect",
    "frontend", "frontend.covariance", "frontend.eigh",
    "frontend.projection", "frontend.symmetry",
    "suppression", "suppression.group", "suppression.peaks",
    "suppression.regions",
    "synthesis", "synthesis.refine",
    "tracker.commit",
    "pool",
)

#: Work counters recorded at the span boundaries.
COUNTERS = (
    "frontend.frames", "suppression.spectra_in", "suppression.spectra_out",
    "synthesis.clients", "synthesis.refine.evaluations", "pool.shards",
    "pool.payload_bytes",
)

#: One span: (span id, parent span id or -1, workload call, name, start, end).
Span = tuple[int, int, int, str, float, float]
CountHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span store of one traced run (single calling thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Index of the workload call in flight (set by the caller).
        self.call = -1
        self._open: list[int] = []

    def wrap(self, name: str, function: Callable,
             count: CountHook | None = None) -> Callable:
        """Return ``function`` recording a ``name`` span per call."""
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = open_spans[-1] if open_spans else -1
            span_id = len(spans)
            spans.append((span_id, parent, self.call, name, 0.0, 0.0))
            open_spans.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[span_id] = (span_id, parent, self.call, name, start, end)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because one thread makes every call.
        """
        child_s = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                  for name in SPANS}
        for span_id, _, _, name, start, end in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_s[span_id]
        return totals

    def root_busy_s(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _, parent, _, _, start, end in self.spans
                   if parent < 0)


def _frames(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["frontend.frames"] += len(result)


def _suppressed(tracer: Tracer, args: tuple, kwargs: dict,
                result: Any) -> None:
    spectra = args[1] if len(args) > 1 else kwargs["spectra"]
    tracer.counters["suppression.spectra_in"] += len(spectra)
    tracer.counters["suppression.spectra_out"] += len(result)


def _synthesized(tracer: Tracer, args: tuple, kwargs: dict,
                 result: Any) -> None:
    tracer.counters["synthesis.clients"] += len(result)


def _shipped(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Shard count and shared-memory payload of one pool call.

    The payload counts each distinct array once, as the pool's packer
    does (spectra of one deployment share their angle-grid array).
    """
    shards, by_client = args[1], args[2]
    tracer.counters["pool.shards"] += len(shards)
    seen: set[int] = set()
    payload = 0
    for shard in shards:
        for client_id in shard:
            for frames in by_client[client_id].values():
                for frame in frames:
                    spectrum = frame[1] if isinstance(frame, tuple) else frame
                    for array in (spectrum.angles_deg, spectrum.power):
                        if id(array) not in seen:
                            seen.add(id(array))
                            payload += array.nbytes
    tracer.counters["pool.payload_bytes"] += payload


def _counting_refine(tracer: Tracer, refine_many: Callable) -> Callable:
    """``refine_many`` counting the candidates its evaluate callable gets."""

    @functools.wraps(refine_many)
    def refine(evaluate: Callable, *args: Any, **kwargs: Any) -> Any:
        def counted(units: Any, xs: Any, ys: Any) -> Any:
            tracer.counters["synthesis.refine.evaluations"] += len(xs)
            return evaluate(units, xs, ys)

        return refine_many(counted, *args, **kwargs)

    return refine


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every span wrapper for the duration of the block."""
    targets: list[tuple[Any, str, str, CountHook | None]] = [
        (ArrayTrackService, "ingest_many", "service.ingest", None),
        (ArrayTrackService, "tick", "service.tick", None),
        (ArrayTrackService, "localize_many", "service.localize", None),
        (ArrayTrackService, "localize_buffered", "service.sweep", None),
        (ArrayTrackServer, "collect_buffered", "server.collect", None),
        (SpectrumComputer, "compute_many_stacked", "frontend", _frames),
        (SpectrumComputer, "compute_many_with_symmetry_stacked", "frontend",
         _frames),
        (pipeline, "smoothed_covariance_many", "frontend.covariance", None),
        (pipeline, "sample_covariance_many", "frontend.covariance", None),
        (music, "decompose_many", "frontend.eigh", None),
        (pipeline, "music_spectrum_many", "frontend.projection", None),
        (SymmetryResolver, "side_powers_stack", "frontend.symmetry", None),
        (MultipathSuppressor, "process", "suppression", _suppressed),
        (suppression, "group_spectra_by_time", "suppression.group", None),
        (suppression, "find_peaks", "suppression.peaks", None),
        (suppression, "peak_regions", "suppression.regions", None),
        (BatchLocalizer, "estimate_batch", "synthesis", _synthesized),
        (ClientTracker, "update", "tracker.commit", None),
        (ProcessShardPool, "localize_shards", "pool", _shipped),
        (ProcessShardPool, "tick_shards", "pool", _shipped),
    ]
    originals = [(owner, attribute, vars(owner)[attribute])
                 for owner, attribute, _, _ in targets]
    originals.append((batch, "refine_many", batch.refine_many))
    try:
        for owner, attribute, name, count in targets:
            setattr(owner, attribute,
                    tracer.wrap(name, getattr(owner, attribute), count))
        batch.refine_many = tracer.wrap(
            "synthesis.refine", _counting_refine(tracer, batch.refine_many))
        yield tracer
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)

