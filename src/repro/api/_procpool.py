"""Process-backend sharding: a persistent spawn pool + shared-memory spectra.

This module is the ``ParallelConfig.backend = "process"`` rung of the
service's degradation ladder: a lazy, persistent pool of *spawned* worker
processes, each owning its own :class:`~repro.server.
backend.ArrayTrackServer` (and therefore its own steering/bearing/window
caches, warmed in the worker initializer), with the bulk frame data --
angle grids and spectrum power rows -- moved through one
``multiprocessing.shared_memory`` segment per batched call.  Only small
things cross the pickle pipe:

* down: the segment name, per-array ``(offset, length)`` specs and per-shard
  index metadata (client/AP ids, positions, timestamps);
* up: the per-shard fix dictionaries (:class:`~repro.core.localizer.
  LocationEstimate` objects).

Workers rebuild each shard's :class:`~repro.core.spectrum.AoASpectrum`
objects as zero-copy read-only views into the segment, run
:func:`drain_shard` -- the one suppression + synthesis step the serial
rung runs too -- and return fixes.  Because every stage is
deterministic and the shard merge preserves the caller's client order,
process-sharded results are bit-for-bit identical to the serial path
(asserted by ``tests/api/test_process_backend.py``).

A pool failure -- a worker crash, a blown per-shard deadline or a failed
segment allocation -- discards the pool and raises
:class:`~repro.errors.PoolSupervisionError`, a
:class:`~repro.errors.TransientError` the service's degradation ladder
absorbs by serving the batch serially; the next sharded call respawns the
pool.

Shared-memory lifecycle: the parent creates one segment per batched call and
always closes *and unlinks* it in a ``finally`` -- success, worker
exception, or worker crash alike -- so no segment outlives the call.  The
module-level :func:`live_segments` registry backs the teardown assertions in
the test suite.  Spawn (not fork) is used so a pool started from a threaded
parent is safe on every platform.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
import uuid
from itertools import islice
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from repro.core.cache import default_bearing_cache
from repro.core.localizer import LocationEstimate
from repro.core.spectrum import AoASpectrum
from repro.core.suppression import MultipathSuppressor
from repro.errors import (ConfigurationError, EstimationError,
                          FaultInjectedError, PoolSupervisionError)
from repro.geometry.vector import Point2D
from repro.server.backend import ArrayTrackServer
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.config import ArrayTrackConfig

__all__ = ["ProcessShardPool", "PoolStats", "SEGMENT_PREFIX", "drain_shard",
           "live_segments", "shm_leak_events"]

#: Prefix of every shared-memory segment this module creates; the teardown
#: tests scan ``/dev/shm`` for it to prove nothing leaked.
SEGMENT_PREFIX = "arraytrack_"

#: Parent-side registry of segments created but not yet unlinked.
_LIVE_SEGMENTS: set = set()

#: Times a segment's ``close()`` failed with :class:`BufferError` (a view
#: into the mapping escaped, so the parent-side mapping lives until the GC
#: collects the view).  Never silently reset; surfaced by
#: ``ArrayTrackService.health()`` so leak drift is observable in
#: production, not just in the test suite's teardown assertions.
_LEAK_EVENTS = 0


def live_segments() -> frozenset[str]:
    """Return the names of this process's currently live shm segments.

    Empty whenever no sharded call is in flight; the equality suite asserts
    it is empty after every call and after ``close()``.
    """
    return frozenset(_LIVE_SEGMENTS)


def shm_leak_events() -> int:
    """Times a segment close leaked its parent-side mapping (monotonic)."""
    return _LEAK_EVENTS


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{uuid.uuid4().hex[:12]}"


# ----------------------------------------------------------------------
# Shared-memory packing (parent side)
# ----------------------------------------------------------------------
#: One spectrum, flattened to picklable metadata plus two array indices:
#: ``(angles_index, power_index, ap_xy, orientation_deg, client_id, ap_id,
#: timestamp_s)``.
_SpectrumRef = tuple[int, int, tuple[float, float] | None, float,
                     str, str, float]


@dataclass(frozen=True)
class _SegmentHandle:
    """Everything a worker needs to map the batch arrays: name + layout."""

    name: str
    #: Per-array ``(byte offset, element count)``; all arrays are 1-D
    #: float64, so the layout stays self-describing and 8-byte aligned.
    specs: tuple[tuple[int, int], ...]


class _ArrayPacker:
    """Collects the batch's float arrays and writes them into one segment.

    Arrays are deduplicated by source-object identity: every spectrum of a
    deployment typically shares one angle-grid object, so the grid is
    stored once per segment instead of once per frame.
    """

    def __init__(self) -> None:
        self._arrays: list[np.ndarray] = []
        self._specs: list[tuple[int, int]] = []
        self._by_source: dict[int, int] = {}
        self._nbytes = 0

    def add(self, array: np.ndarray) -> int:
        """Register one 1-D array; returns its index into the segment."""
        index = self._by_source.get(id(array))
        if index is not None:
            return index
        # dtype-pinned: float64 -- the shared-memory segment's wire format is fixed float64
        data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
        index = len(self._arrays)
        self._arrays.append(data)
        self._specs.append((self._nbytes, int(data.shape[0])))
        self._nbytes += data.nbytes
        self._by_source[id(array)] = index
        return index

    def pack(self) -> tuple[shared_memory.SharedMemory, _SegmentHandle]:
        """Create the segment, copy every array in, return it + its handle.

        The segment's lifetime is split across functions: every caller
        must release it (``localize_shards()`` does, in its ``finally``, via
        ``_release_segment``).  repro-lint's RPR012 flow analysis proves
        that contract on each run; the zero-leak behavior is additionally
        asserted against ``live_segments()`` and ``/dev/shm`` by
        ``tests/api/test_process_backend.py``.
        """
        faults.shm_allocation()
        segment = shared_memory.SharedMemory(
            create=True, size=max(self._nbytes, 8), name=_new_segment_name())
        _LIVE_SEGMENTS.add(segment.name)
        for (offset, length), data in zip(self._specs, self._arrays, strict=True):
            # dtype-pinned: float64 -- views into the fixed float64 wire format
            target = np.ndarray((length,), dtype=np.float64,
                                buffer=segment.buf, offset=offset)
            target[:] = data
            # Drop the view immediately so the buffer has no exports left
            # when the parent closes the segment.
            del target
        return segment, _SegmentHandle(segment.name, tuple(self._specs))


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink one segment, tolerating partial prior cleanup.

    A :class:`BufferError` from ``close()`` means a view into the mapping
    escaped; the GC will release the mapping eventually, but the event is
    *counted* (see :func:`shm_leak_events`) rather than swallowed, so a
    code path that habitually leaks views shows up in ``health()``.  The
    unlink still runs either way -- the segment name must not outlive the
    call system-wide.
    """
    global _LEAK_EVENTS
    name = segment.name
    try:
        segment.close()
    except BufferError:
        _LEAK_EVENTS += 1
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    _LIVE_SEGMENTS.discard(name)


def _encode_spectrum(packer: _ArrayPacker,
                     spectrum: AoASpectrum) -> _SpectrumRef:
    position = spectrum.ap_position
    return (
        packer.add(spectrum.angles_deg),
        packer.add(spectrum.power),
        None if position is None else (float(position.x), float(position.y)),
        float(spectrum.ap_orientation_deg),
        spectrum.client_id,
        spectrum.ap_id,
        float(spectrum.timestamp_s),
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class _WorkerState:
    server: ArrayTrackServer
    suppressor: MultipathSuppressor


_WORKER: _WorkerState | None = None


def _initialize_worker(config: "ArrayTrackConfig",
                       warm_positions: tuple[tuple[float, float], ...]) -> None:
    """Build this worker's server once and warm its geometry caches.

    Runs in the spawned child before any task.  ``config`` arrives through
    the :class:`~repro.api.config.ArrayTrackConfig` dict-round-trip pickle
    contract, so every validator re-runs on this side of the pipe; the
    bearing grids of the known AP fleet are precomputed so the first real
    shard does not pay the arctan2 sweeps.
    """
    global _WORKER
    assert config.bounds is not None
    default_bearing_cache().warm(
        config.bounds, config.server.localizer.grid_resolution_m,
        warm_positions)
    _WORKER = _WorkerState(server=ArrayTrackServer(config.bounds,
                                                   config.server),
                           suppressor=config.suppressor)


def _require_worker() -> _WorkerState:
    if _WORKER is None:  # pragma: no cover - initializer always runs first
        raise EstimationError(
            "process-pool worker task ran before the worker was initialized")
    return _WORKER


@contextmanager
def _attached_arrays(handle: _SegmentHandle) -> Iterator[list[np.ndarray]]:
    """Attach the segment and yield its arrays as read-only views.

    The views are zero-copy; callers must drop every reference derived from
    them before the context exits so the mapping can be released.  If a
    view escapes into an in-flight exception's traceback the close is
    skipped (the worker releases the mapping when the traceback is
    collected) -- the *parent's* unlink removes the segment name either
    way, so nothing leaks system-wide.
    """
    segment = shared_memory.SharedMemory(name=handle.name)
    arrays: list[np.ndarray] = []
    try:
        for offset, length in handle.specs:
            view = np.ndarray((length,), dtype=np.float64,
                              buffer=segment.buf, offset=offset)
            view.flags.writeable = False
            arrays.append(view)
        yield arrays
    finally:
        arrays.clear()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - view held by a traceback
            pass


def _decode_spectrum(arrays: Sequence[np.ndarray],
                     ref: _SpectrumRef) -> AoASpectrum:
    angles_index, power_index, position, orientation, client_id, ap_id, \
        timestamp_s = ref
    return AoASpectrum(
        arrays[angles_index], arrays[power_index],
        ap_position=None if position is None else Point2D(*position),
        ap_orientation_deg=orientation, client_id=client_id, ap_id=ap_id,
        timestamp_s=timestamp_s)


#: A batch's spectra as the shard step takes them: per client and per AP,
#: in arrival order.  The client and AP orders are part of the
#: bit-equality contract.
SpectraByClient = Mapping[str, Mapping[str, Sequence[AoASpectrum]]]

#: The capture times the streaming suppression stage groups on, one per
#: spectrum of :data:`SpectraByClient`: the sessions' ingest-resolved
#: timestamps, which may differ from each ``spectrum.timestamp_s``.
TimesByClient = Mapping[str, Mapping[str, Sequence[float]]]

#: One shard as shipped to a worker: per client and per AP, the spectra as
#: :data:`_SpectrumRef` tuples and their stream times (empty off-stream).
_Shard = tuple[tuple[str, tuple[tuple[str, tuple[_SpectrumRef, ...],
                                      tuple[float, ...]], ...]], ...]


def drain_shard(server: ArrayTrackServer, suppressor: MultipathSuppressor,
                spectra_by_client: SpectraByClient,
                stream_times: TimesByClient | None = None
                ) -> dict[str, LocationEstimate]:
    """Turn one shard's per-AP frames into fixes: the step every rung runs.

    This is the only code that picks the spectra Equation 8 folds, so a fix
    does not depend on which rung served it.  Per client and per AP:

    * with ``stream_times`` given (the streaming
      ``session.suppress_multipath`` stage), the frames are grouped on
      those times and every group's suppressed primary is folded;
    * otherwise, with ``server.enable_multipath_suppression`` on and at
      least two frames, they are grouped on each spectrum's own
      ``timestamp_s`` and the earliest group's primary is folded
      (Section 2.4 outputs one primary per group; the batch path keeps
      the first burst);
    * otherwise the AP's first frame is folded.

    ``suppressor`` holds the service's top-level ``suppressor`` section,
    which parameterizes both rules.  Either way the shard's groups go
    through one stacked pass: one
    :meth:`~repro.core.suppression.MultipathSuppressor.process` call over
    every (client, AP) stream of the shard, or one
    :meth:`~repro.core.suppression.MultipathSuppressor.suppress_many` call
    over each stream's earliest group (a lone first frame is a group of
    one and passes unchanged).  The folded spectra then go through
    :meth:`~repro.server.backend.ArrayTrackServer.synthesize_batch`
    (Equation 8 and the hill climb).
    """
    if stream_times is not None:
        folded = suppressor.process(
            {(client_id, ap_id): frames
             for client_id, per_ap in spectra_by_client.items()
             for ap_id, frames in per_ap.items()},
            timestamps={(client_id, ap_id): times
                        for client_id, per_ap in stream_times.items()
                        for ap_id, times in per_ap.items()})
        return server.synthesize_batch({
            client_id: [spectrum for ap_id in per_ap
                        for spectrum in folded[client_id, ap_id]]
            for client_id, per_ap in spectra_by_client.items()})
    earliest_group = server.config.enable_multipath_suppression
    groups: list[list[AoASpectrum]] = []
    per_client: list[tuple[str, int]] = []
    for client_id, per_ap in spectra_by_client.items():
        start = len(groups)
        for frames in per_ap.values():
            if earliest_group and len(frames) >= 2:
                groups.append(suppressor.group(frames)[0])
            elif frames:
                groups.append([frames[0]])
        per_client.append((client_id, len(groups) - start))
    outputs = iter(suppressor.suppress_many(groups))
    return server.synthesize_batch({
        client_id: list(islice(outputs, count))
        for client_id, count in per_client})


def _drain_task(handle: _SegmentHandle, shard: _Shard,
                suppress: bool) -> dict[str, LocationEstimate]:
    """Worker task: map one shard's spectra from the segment and drain it."""
    worker = _require_worker()
    faults.worker_shard("before-attach")
    with _attached_arrays(handle) as arrays:
        faults.worker_shard("after-attach")
        spectra = {
            client_id: {ap_id: [_decode_spectrum(arrays, ref) for ref in refs]
                        for ap_id, refs, _ in per_ap}
            for client_id, per_ap in shard}
        stream_times = None if not suppress else {
            client_id: {ap_id: times for ap_id, _, times in per_ap}
            for client_id, per_ap in shard}
        estimates = drain_shard(worker.server, worker.suppressor, spectra,
                                stream_times)
        del spectra
    faults.worker_shard("before-return")
    return estimates


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Monotonic failure counters of one :class:`ProcessShardPool`.

    Surfaced (merged with the module-level shm counters) through
    ``ArrayTrackService.health()``; the counters never reset over the
    pool's lifetime, so deltas between snapshots are meaningful.
    """

    #: Executors discarded after a failed round (the next call respawns).
    rebuilds: int = 0
    #: Rounds that failed on a broken executor (worker death).
    broken_pools: int = 0
    #: Rounds that failed on a blown ``shard_timeout_s`` deadline.
    shard_timeouts: int = 0

    def snapshot(self) -> dict[str, int | float]:
        """JSON-safe counter state."""
        return {
            "rebuilds": self.rebuilds,
            "broken_pools": self.broken_pools,
            "shard_timeouts": self.shard_timeouts,
            # No in-pool retries any more; zero for perfbench/run.py.
            "shard_retries": 0,
            "backoff_slept_s": 0.0,
        }


class ProcessShardPool:
    """A lazy, persistent spawn pool sharding batched calls across processes.

    Owned by :class:`~repro.api.ArrayTrackService` when
    ``parallel.backend = "process"``.  Workers are spawned on the first
    sharded call and persist across calls (the per-worker server and its
    warmed caches amortize over the service lifetime); :meth:`close` shuts
    them down.  Each batched call moves its frame arrays through one
    shared-memory segment that is unconditionally unlinked before the call
    returns -- on success, on a worker exception (which re-raises here with
    the original remote traceback chained), and on a worker crash.

    Each call makes one submission round and never retries.  A broken
    executor (at submit or result time), a blown ``shard_timeout_s``
    deadline or a failed segment allocation discards the executor --
    terminating its workers -- and raises
    :class:`~repro.errors.PoolSupervisionError` (a
    :class:`~repro.errors.TransientError`), so the service's circuit
    breaker serves the batch on the serial rung within the same call; the
    next sharded call respawns the pool.  A task-level exception -- the
    worker itself raised -- propagates chained and discards nothing:
    re-running a deterministic error would re-fail identically.

    The started/closed lifecycle is guarded by a lock: a ``close()``
    racing an in-flight call can neither resurrect the executor nor shut
    it down twice, and any later call fails fast with
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, config: "ArrayTrackConfig",
                 warm_positions: Iterable[tuple[float, float]] = ()) -> None:
        if config.bounds is None:
            raise ConfigurationError(
                "a process shard pool needs config.bounds to build its "
                "per-worker servers")
        self._config = config
        self._warm_positions = tuple(
            (float(x), float(y)) for x, y in warm_positions)
        #: Guards the executor lifecycle (spawn / discard / close).
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._pool_closed = False
        self.stats = PoolStats()

    @property
    def started(self) -> bool:
        """True once workers have been spawned (and not yet discarded)."""
        with self._lock:
            return self._executor is not None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; the pool cannot be restarted."""
        with self._lock:
            return self._pool_closed

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            return self._ensure_locked()

    def _ensure_locked(self) -> ProcessPoolExecutor:
        if self._pool_closed:
            raise ConfigurationError(
                "this ProcessShardPool is closed; build a new service "
                "instead of reusing it")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._config.parallel.num_workers,
                mp_context=get_context("spawn"),
                initializer=_initialize_worker,
                initargs=(self._config, self._warm_positions))
        return self._executor

    def _discard_executor(self, executor: ProcessPoolExecutor) -> None:
        """Tear one executor down so the next call spawns a fresh pool.

        Compare-and-swap under the lock: if a concurrent :meth:`close`
        already took this executor, it is not popped -- and shutting an
        already-shut executor down again is a no-op, so the two paths
        cannot double-free.  Timed-out workers may still be running; they
        are terminated best-effort so a wedged worker cannot pin the old
        pool's resources.
        """
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()

    def _fail(self, executor: ProcessPoolExecutor, cause: BaseException,
              what: str) -> NoReturn:
        """Discard ``executor`` and raise the failed round's transient error."""
        self._discard_executor(executor)
        self.stats.rebuilds += 1
        raise PoolSupervisionError(
            f"{what}; the batch falls to the serial rung and the next "
            f"sharded call respawns the pool") from cause

    # ------------------------------------------------------------------
    # Batched calls
    # ------------------------------------------------------------------
    def localize_shards(self, shards: Sequence[Sequence[str]],
                        spectra_by_client: SpectraByClient,
                        stream_times: TimesByClient | None
                        ) -> dict[str, LocationEstimate]:
        """Run :func:`drain_shard` per shard on the pool, merged in order.

        One submission round; a failed round raises
        :class:`~repro.errors.PoolSupervisionError` chained to its cause,
        as the class docstring describes.
        """
        packer = _ArrayPacker()
        encoded = {
            client_id: tuple(
                (ap_id,
                 tuple(_encode_spectrum(packer, spectrum)
                       for spectrum in spectra),
                 () if stream_times is None else
                 tuple(float(t) for t in stream_times[client_id][ap_id]))
                for ap_id, spectra in spectra_by_client[client_id].items())
            for shard in shards for client_id in shard}
        payloads: list[_Shard] = [
            tuple((client_id, encoded[client_id]) for client_id in shard)
            for shard in shards]
        executor = self._ensure()
        try:
            segment, handle = packer.pack()
        except (OSError, FaultInjectedError) as exc:
            # No /dev/shm headroom (or an injected allocation failure):
            # transient infrastructure, not data.
            self._fail(executor, exc, f"could not allocate the batch's "
                                      f"shared-memory segment: {exc}")
        try:
            return self._round(executor, handle, payloads,
                               stream_times is not None)
        finally:
            _release_segment(segment)

    #: The streaming name of the one entry point; ``perfbench/tracing.py``
    #: wraps the pool under both names.
    tick_shards = localize_shards

    def _round(self, executor: ProcessPoolExecutor, handle: _SegmentHandle,
               payloads: Sequence[_Shard], suppress: bool
               ) -> dict[str, LocationEstimate]:
        """Submit every shard once and merge the results in shard order."""
        timeout_s = self._config.resilience.shard_timeout_s
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        futures: list[Future[dict[str, LocationEstimate]]] = []
        try:
            futures = [executor.submit(_drain_task, handle, payload, suppress)
                       for payload in payloads]
            merged: dict[str, LocationEstimate] = {}
            for future in futures:
                remaining = None if deadline is None \
                    else max(deadline - time.monotonic(), 0.0)
                merged.update(future.result(timeout=remaining))
            return merged
        except BrokenExecutor as exc:
            self.stats.broken_pools += 1
            self._fail(executor, exc, f"a pool worker died: {exc}")
        except (TimeoutError, concurrent.futures.TimeoutError) as exc:
            self.stats.shard_timeouts += 1
            self._fail(executor, exc, f"a shard overran "
                                      f"shard_timeout_s={timeout_s}")
        except BaseException:
            # A task-level exception: the pool is healthy, so only the
            # round's unfinished shards are cancelled.
            for future in futures:
                future.cancel()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and mark the pool closed (idempotent).

        The executor is popped and the closed flag set under the lock, so
        a close racing an in-flight call's rebuild can neither be undone
        (any later ``_ensure`` raises) nor shut the same executor down
        twice; the potentially slow worker join happens outside the lock.
        """
        with self._lock:
            executor = self._executor
            self._executor = None
            self._pool_closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
