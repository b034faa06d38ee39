"""Process-backend sharding: a persistent worker pool fed through its pickle pipe.

This module is the ``ParallelConfig.backend = "process"`` rung of the
service's degradation ladder: a lazy, persistent pool of worker
processes, each owning its own :class:`~repro.server.
backend.ArrayTrackServer` (and therefore its own steering/bearing/window
caches, warmed in the worker initializer).  Each shard crosses the
executor's own pickle pipe as the arguments of one task:

* down: the shard's :class:`~repro.core.spectrum.AoASpectrum` objects per
  client and per AP (pickle stores an angle grid the shard's spectra
  share once) and, on the streaming path, their ingest-resolved times;
* up: the per-shard fix dictionaries (:class:`~repro.core.localizer.
  LocationEstimate` objects).

Workers run :func:`drain_shard` -- the one suppression + synthesis step
the serial rung runs too -- on the unpickled spectra and return fixes.
Because every stage is deterministic and the shard merge preserves the
caller's client order, process-sharded results are bit-for-bit identical
to the serial path (asserted by ``tests/api/test_process_backend.py``).

A pool failure -- a worker crash or a blown per-shard deadline -- discards
the pool and raises :class:`~repro.errors.PoolSupervisionError`, a
:class:`~repro.errors.TransientError` the service's degradation ladder
absorbs by serving the batch serially; the next sharded call respawns the
pool.

Workers are forked from a ``forkserver`` that has already imported this
module (and with it NumPy and the whole pipeline), so a respawn after a
crash costs a fork and the worker initializer, not an interpreter start
plus every import.  The fork server is a fresh single-threaded process,
so a pool started from a threaded parent is safe; where the platform has
no fork server, workers are spawned.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time
from itertools import islice
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.context import BaseContext
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, NoReturn, TypeVar

from repro.core.cache import default_bearing_cache
from repro.core.localizer import LocationEstimate
from repro.core.spectrum import AoASpectrum
from repro.core.suppression import MultipathSuppressor
from repro.errors import (ConfigurationError, EstimationError,
                          PoolSupervisionError)
from repro.server.backend import ArrayTrackServer
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.config import ArrayTrackConfig

__all__ = ["ProcessShardPool", "PoolStats", "drain_shard", "live_segments",
           "shm_leak_events"]

_T = TypeVar("_T")


def live_segments() -> frozenset[str]:
    """Always empty: shards no longer travel through shared memory.

    Kept because ``perfbench/run.py`` still imports it for its leak check.
    """
    return frozenset()


def shm_leak_events() -> int:
    """Always 0; kept because ``perfbench/run.py`` still imports it."""
    return 0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class _WorkerState:
    server: ArrayTrackServer
    suppressor: MultipathSuppressor


_WORKER: _WorkerState | None = None


def _initialize_worker(config: "ArrayTrackConfig",
                       warm_positions: tuple[tuple[float, float], ...],
                       fault_plan: str | None) -> None:
    """Build this worker's server once and warm its geometry caches.

    Runs in the child before any task.  ``config`` arrives through
    the :class:`~repro.api.config.ArrayTrackConfig` dict-round-trip pickle
    contract, so every validator re-runs on this side of the pipe; the
    bearing grids of the known AP fleet are precomputed so the first real
    shard does not pay the arctan2 sweeps.

    ``fault_plan`` is the parent's :data:`repro.testing.faults.ENV_VAR`
    value when the pool was built.  A forked worker inherits the fork
    server's environment, which may predate (or outlive) the parent's
    plan, so the worker installs the parent's plan -- or none -- itself.
    """
    global _WORKER
    if fault_plan is None:
        faults.deactivate()
    else:
        faults.activate_json(fault_plan)
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


#: A batch's spectra as the shard step takes them: per client and per AP,
#: in arrival order.  The client and AP orders are part of the
#: bit-equality contract.
SpectraByClient = Mapping[str, Mapping[str, Sequence[AoASpectrum]]]

#: The capture times the streaming suppression stage groups on, one per
#: spectrum of :data:`SpectraByClient`: the sessions' ingest-resolved
#: timestamps, which may differ from each ``spectrum.timestamp_s``.
TimesByClient = Mapping[str, Mapping[str, Sequence[float]]]

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


def _drain_task(spectra_by_client: SpectraByClient,
                stream_times: TimesByClient | None
                ) -> dict[str, LocationEstimate]:
    """Worker task: drain one unpickled shard."""
    worker = _require_worker()
    faults.worker_shard("after-attach")
    estimates = drain_shard(worker.server, worker.suppressor,
                            spectra_by_client, stream_times)
    faults.worker_shard("before-return")
    return estimates


def _shard_table(by_client: Mapping[str, Mapping[str, Sequence[_T]]],
                 shard: Sequence[str]) -> dict[str, dict[str, list[_T]]]:
    """One shard's rows of a per-client, per-AP table as plain dicts and
    lists, so the task pickles whatever mapping types the caller passed."""
    return {client_id: {ap_id: list(values)
                        for ap_id, values in by_client[client_id].items()}
            for client_id in shard}


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Monotonic failure counters of one :class:`ProcessShardPool`.

    Surfaced through ``ArrayTrackService.health()``; the counters never
    reset over the pool's lifetime, so deltas between snapshots are
    meaningful.
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


def _pool_context() -> BaseContext:
    """The fork-server context with this module preloaded, else spawn."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return get_context("spawn")
    context = get_context("forkserver")
    context.set_forkserver_preload([__name__])
    return context


class ProcessShardPool:
    """A lazy, persistent worker pool sharding batched calls across processes.

    Owned by :class:`~repro.api.ArrayTrackService` when
    ``parallel.backend = "process"``.  Workers are started on the first
    sharded call and persist across calls (the per-worker server and its
    warmed caches amortize over the service lifetime); :meth:`close` shuts
    them down.

    Each call makes one submission round and never retries.  A broken
    executor (at submit or result time) or a blown ``shard_timeout_s``
    deadline discards the executor -- terminating its workers -- and
    raises :class:`~repro.errors.PoolSupervisionError` (a
    :class:`~repro.errors.TransientError`), so the service's circuit
    breaker serves the batch on the serial rung within the same call; the
    next sharded call respawns the pool.  A task-level exception -- the
    worker itself raised -- propagates with the remote traceback chained
    and discards nothing: re-running a deterministic error would re-fail
    identically.

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
                mp_context=_pool_context(),
                initializer=_initialize_worker,
                initargs=(self._config, self._warm_positions,
                          os.environ.get(faults.ENV_VAR)))
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

        Each shard's spectra and stream times are the pickled arguments of
        its one task.  One submission round; a failed round raises
        :class:`~repro.errors.PoolSupervisionError` chained to its cause,
        as the class docstring describes.
        """
        executor = self._ensure()
        timeout_s = self._config.resilience.shard_timeout_s
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        futures: list[Future[dict[str, LocationEstimate]]] = []
        try:
            futures = [executor.submit(
                _drain_task, _shard_table(spectra_by_client, shard),
                None if stream_times is None
                else _shard_table(stream_times, shard))
                for shard in shards]
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

    #: The streaming name of the one entry point; ``perfbench/tracing.py``
    #: wraps the pool under both names.
    tick_shards = localize_shards

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
