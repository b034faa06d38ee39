"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream_track --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed`` (untimed), sets up
the service several times from cold caches (``setup_s`` is the median),
then drives the last service as a closed loop for at least ``--seconds``
seconds and at least ``MIN_CALLS`` calls, checking every answer.  Its
timings are reported at a reference machine speed (see ``MachineSpeed``
and ``Loop``); the unscaled figures are kept in the run record.  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a further, traced pass
of ``TRACE_CALLS`` calls, and the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  The lines before it
record the environment and the run's call counts.  The exit code is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per process: the pool's workers inherit this environment,
# so the parent and its 2 workers never oversubscribe a small machine.
BLAS_THREADS = 1
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
if not (SOURCE / "repro").is_dir():
    print(f"perfbench: no program source at {SOURCE}; run from the root of "
          f"a checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SOURCE))

try:
    import multiprocessing
    from multiprocessing import resource_tracker

    import numpy as np

    from repro.api._procpool import live_segments, shm_leak_events
    from repro.core.cache import clear_default_caches
    from repro.testing import faults
except ImportError as _error:
    print(f"perfbench: cannot import the program from {SOURCE}: "
          f"{_error}", file=sys.stderr)
    sys.exit(2)

from tracing import COUNTERS, SPANS, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, Workload, answer, in_bounds  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Calls a run makes at least, so that >= 10 samples lie beyond its p90.
MIN_CALLS = 100
#: Calls of the traced pass; a fixed amount of work, so per-layer totals
#: compare across commits.
TRACE_CALLS = 40
#: Windows a measuring loop's calls are split into (see ``Loop``).
WINDOWS = 5
#: Longest a measuring loop may run, whatever the call floor asks.
MAX_LOOP_S = 100.0
TRACE_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "fixes_per_s": "fixes/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "median_error_cm": "cm",
    "success_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer counters read from ``ArrayTrackService.health()``.
HEALTH_UNITS = {
    "pool.rebuilds": "count",
    "pool.broken_pools": "count",
    "pool.shard_retries": "count",
    "pool.shard_timeouts": "count",
    "pool.backoff_slept_s": "s",
    "pool.leaked_segments": "count",
    "resilience.fallbacks": "count",
    "ingest.shed_frames": "count",
    "ingest.rejected": "count",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
    for counter in COUNTERS:
        units[counter] = "bytes" if counter.endswith("_bytes") else "count"
    units.update(HEALTH_UNITS)
    units["trace.overhead"] = "ratio"
    units["trace.unattributed_share"] = "ratio"
    return units


def environment() -> dict[str, object]:
    try:
        import scipy
    except ImportError:
        scipy_version = None
    else:
        scipy_version = scipy.__version__
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "scipy_available": scipy_version is not None,
        "blas_threads": BLAS_THREADS,
    }


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """This process's peak RSS plus the peaks of its live pool workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += sum(_vm_hwm_kib(child.pid)
               for child in multiprocessing.active_children())
    return kib * 1024 / 1e6


class Checker:
    """Checks every call's answer and keeps the run's failure counts.

    A call fails when it raises, omits a requested client, returns a
    non-finite or out-of-bounds fix, or answers an input differently from
    its reference (the serial path's answer, or the first answer served).
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.served: set[int] = set()

    def record(self, index: int, fixes: dict | None) -> int:
        """Check one call; returns the number of fixes it delivered."""
        self.attempted += 1
        if fixes is None:
            self.failed += 1
            return 0
        key = self.workload.key(index)
        truth = self.workload.truth[key]
        bounds = self.workload.testbed.bounds
        answers = {client_id: answer(estimate)
                   for client_id, estimate in fixes.items()}
        reference = self.workload.reference.setdefault(key, answers)
        if (set(truth) - set(fixes)
                or not all(in_bounds(estimate.position, bounds)
                           for estimate in fixes.values())
                or answers != reference):
            self.failed += 1
        self.served.add(key)
        return len(fixes)

    def median_error_cm(self) -> float:
        """Median fix error over every distinct input served."""
        errors = []
        for key in sorted(self.served):
            truth = self.workload.truth[key]
            for client_id, (x, y, _) in self.workload.reference[key].items():
                position = truth[client_id]
                errors.append(100.0 * float(np.hypot(x - position.x,
                                                     y - position.y)))
        return float(np.median(errors)) if errors else float("nan")


def call_checked(workload: Workload, service, index: int
                 ) -> tuple[dict | None, float]:
    """One timed call; an exception is reported and yields no fixes."""
    start = time.perf_counter()
    try:
        fixes = workload.call(service, index)
    except Exception:  # a failed call is counted, and the loop goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return None, elapsed
    return fixes, time.perf_counter() - start


class MachineSpeed:
    """Times a fixed pass of interpreter and NumPy work between calls.

    The pass runs none of the program's code, so its time follows only the
    machine's speed at that moment.  On a shared machine that speed drifts
    by tens of percent over seconds to minutes as neighbours' load comes
    and goes, and the pass slows with it.  Scaling a window's call times by
    ``REFERENCE_S`` over the window's median pass time reports them at the
    reference speed, which removes most of that drift from the figures.
    """

    #: Pass time that defines the reference speed.
    REFERENCE_S = 2.5e-3

    def __init__(self) -> None:
        self._matrix = np.random.default_rng(0).random((96, 96))

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for value in range(20_000):
            total += value * value
        matrix = self._matrix
        for _ in range(20):
            matrix = matrix @ matrix
            matrix /= np.abs(matrix).max()
        return time.perf_counter() - start

    def scale(self, samples: list[float]) -> float:
        """Factor taking times measured alongside ``samples`` to the
        reference speed."""
        return self.REFERENCE_S / float(np.median(samples))


class Loop:
    """Closed-loop call times and delivered fixes of one measuring pass.

    Each timing is the median, over ``WINDOWS`` consecutive windows of
    equal call count, of that window's statistic at the reference speed
    (see :class:`MachineSpeed`).  A burst of load that covers a tenth of
    the run then leaves the figures alone, where it would shift a
    whole-run p90 or mean.
    """

    def __init__(self, speed: MachineSpeed) -> None:
        self.speed = speed
        self.durations: list[float] = []
        self.fixes: list[int] = []
        self.passes: list[float] = []
        self.peak_rss_mb = 0.0

    def windowed(self, statistic, scaled: bool = True) -> float:
        """Median over the windows of ``statistic(call seconds, fixes)``."""
        edges = np.linspace(0, len(self.durations), WINDOWS + 1).astype(int)
        values = []
        for start, stop in zip(edges[:-1], edges[1:], strict=True):
            if stop > start:
                value = statistic(np.array(self.durations[start:stop]),
                                  np.array(self.fixes[start:stop]))
                if scaled:
                    value *= self.speed.scale(self.passes[start:stop])
                values.append(value)
        return float(np.median(values))

    def fixes_per_s(self, scaled: bool = True) -> float:
        return 1.0 / self.windowed(
            lambda seconds, fixes: seconds.sum() / fixes.sum(), scaled)

    def percentile_ms(self, percent: float, scaled: bool = True) -> float:
        return 1e3 * self.windowed(
            lambda seconds, _: np.percentile(seconds, percent), scaled)


def drive(workload: Workload, service, checker: Checker, speed: MachineSpeed,
          first_index: int, seconds: float, min_calls: int,
          max_calls: int | None = None, tracer: Tracer | None = None) -> Loop:
    """Call the service back to back, checking each answer between calls."""
    loop = Loop(speed)
    start = time.perf_counter()
    index = first_index
    while True:
        if tracer is not None:
            tracer.call = index
        fixes, elapsed = call_checked(workload, service, index)
        loop.durations.append(elapsed)
        loop.fixes.append(checker.record(index, fixes))
        loop.peak_rss_mb = max(loop.peak_rss_mb, peak_rss_mb())
        loop.passes.append(speed.sample())
        index += 1
        calls = len(loop.durations)
        wall = time.perf_counter() - start
        if max_calls is not None:
            done = calls >= max_calls
        else:
            done = wall >= seconds and calls >= min_calls
        if done or wall >= MAX_LOOP_S:
            return loop


def health_counters(service) -> dict[str, float]:
    health = service.health()
    pool = health["pool"]
    ingest = health["ingest"]
    return {
        "pool.rebuilds": pool["rebuilds"],
        "pool.broken_pools": pool["broken_pools"],
        "pool.shard_retries": pool["shard_retries"],
        "pool.shard_timeouts": pool["shard_timeouts"],
        "pool.backoff_slept_s": pool["backoff_slept_s"],
        "pool.leaked_segments": pool["shm_leak_events"]
        + len(pool["live_segments"]),
        "resilience.fallbacks": sum(health["fallbacks"]["served_by"].values()),
        "ingest.shed_frames": ingest["shed_frames"],
        "ingest.rejected": ingest["backpressure_rejected"]
        + ingest["poison_rejected"],
    }


def set_up(workload: Workload, checker: Checker, speed: MachineSpeed,
           repeats: int):
    """Build the service ``repeats`` times from cold caches.

    Each set-up constructs the service, registers the workload's APs and
    serves the first call (spawning and warming the pool where one is
    used).  All but the last service are closed.  Returns the service and
    each set-up's time, measured and at the reference speed.
    """
    measured, scaled = [], []
    service = None
    for _ in range(repeats):
        if service is not None:
            service.close()
        clear_default_caches()
        start = time.perf_counter()
        service = workload.build()
        fixes, _ = call_checked(workload, service, 0)
        measured.append(time.perf_counter() - start)
        checker.record(0, fixes)
        passes = [speed.sample() for _ in range(5)]
        scaled.append(measured[-1] * speed.scale(passes))
    return service, measured, scaled


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        tiny: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, run record)."""
    leaks_before = shm_leak_events()
    checker = Checker(workload)
    speed = MachineSpeed()
    service, setup_times, scaled_setup_times = set_up(
        workload, checker, speed, 1 if tiny else SETUP_REPEATS)
    try:
        loop = drive(workload, service, checker, speed, 1, seconds,
                     1 if tiny else MIN_CALLS)
        before_trace = health_counters(service)
        if trace:
            tracer = Tracer()
            with installed(tracer):
                traced = drive(workload, service, checker, speed,
                               1 + len(loop.durations), 0.0, 0,
                               max_calls=3 if tiny else TRACE_CALLS,
                               tracer=tracer)
        health = health_counters(service)
    finally:
        service.close()
    leak_free = not live_segments() and shm_leak_events() == leaks_before
    degraded = workload.fault_free and (
        health["pool.rebuilds"] or health["resilience.fallbacks"])
    record = {
        "workload": workload.name,
        "seed": seed,
        "calls": len(loop.durations),
        "setup_times_s": setup_times,
        "machine_pass_s": float(np.median(loop.passes)),
        "measured": {
            "fixes_per_s": loop.fixes_per_s(scaled=False),
            "latency_p50_ms": loop.percentile_ms(50, scaled=False),
            "latency_p90_ms": loop.percentile_ms(90, scaled=False),
            "setup_s": statistics.median(setup_times),
        },
        "distinct_inputs": workload.num_inputs,
        "leak_free": leak_free,
        "health": health,
    }
    if trace:
        traced_health = {name: health[name] - before_trace[name]
                         for name in health}
        traced_health["pool.leaked_segments"] = health["pool.leaked_segments"]
        metrics = per_layer(tracer, traced, loop, traced_health)
        units = per_layer_units()
        record["traced_calls"] = len(traced.durations)
        write_trace(workload.name, record, tracer, metrics)
    else:
        metrics = {
            "fixes_per_s": loop.fixes_per_s(),
            "latency_p50_ms": loop.percentile_ms(50),
            "latency_p90_ms": loop.percentile_ms(90),
            "median_error_cm": checker.median_error_cm(),
            "success_share": 1.0 - checker.failed / checker.attempted,
            "setup_s": statistics.median(scaled_setup_times),
            "peak_rss_mb": loop.peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": checker.failed == 0 and leak_free and not degraded,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, record


def per_layer(tracer: Tracer, traced: Loop, untraced: Loop,
              counters: dict[str, float]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for span, entry in tracer.summary().items():
        for field, value in entry.items():
            metrics[f"{span}.{field}"] = value
    for counter in COUNTERS:
        metrics[counter] = tracer.counters.get(counter, 0)
    metrics.update(counters)
    metrics["trace.overhead"] = untraced.fixes_per_s() / traced.fixes_per_s()
    metrics["trace.unattributed_share"] = \
        1.0 - tracer.root_busy_s() / sum(traced.durations)
    return metrics


def write_trace(name: str, record: dict, tracer: Tracer,
                metrics: dict[str, float]) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{record['seed']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"run": record, "metrics": metrics,
                   "span_fields": ["id", "parent", "call", "name", "start_s",
                                   "end_s"],
                   "spans": tracer.spans}, handle)
    record["trace_file"] = str(path.relative_to(ROOT))


def stop_helper_processes() -> None:
    """Wait for every child process to end before the run exits.

    Closing a service joins its pool workers; the shared-memory resource
    tracker would otherwise outlive this process, so it is stopped (and
    waited for) through the standard library's own shutdown hook.
    """
    for child in multiprocessing.active_children():
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one set-up, no call floor "
                             "(a smoke run)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A fault plan inherited from the caller's environment would reach the
    # pool workers; only batch_crash installs one, explicitly.
    faults.deactivate()
    print(json.dumps({"environment": environment()}), flush=True)
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    try:
        result, record = run(workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny)
    finally:
        workload.close()
        stop_helper_processes()
    print(json.dumps({"run": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
