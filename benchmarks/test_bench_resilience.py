"""Benchmark: process-pool throughput under injected crashes.

The resilience layer promises that worker crashes are absorbed -- the
crashed round's batch is served by the serial rung in the same call, the
broken pool is discarded and respawned by the next sharded call, and the
batch's fixes stay bit-for-bit identical to the serial path.  That
promise has a price: every crash costs one serial batch plus one
pool respawn (a fork per worker from the preloaded fork server, plus the
worker initializer).  This benchmark quantifies the price and pins a floor
under it.

Two configurations run the same ``localize_many`` batch repeatedly on the
``parallel.backend="process"`` service:

* ``fault-free`` -- no injected faults (the PR-6 happy path);
* ``10% crash rate`` -- a :class:`repro.testing.faults.FaultSpec` killing
  a worker mid-shard (``os._exit`` once the shard's spectra are in the
  worker, the ``after-attach`` stage) with seeded probability 0.1 per
  shard execution, so roughly one batch in five loses a worker, falls to
  the serial rung and makes the next batch respawn the pool.

Asserted, at any size: every batch of both configurations is bit-identical
to the serial fixes -- crashes must never change answers.  At full size
the **degraded-throughput bound** applies: with a 10% per-shard crash rate
the pool must retain at least ``DEGRADED_THROUGHPUT_FLOOR`` (10%) of its
fault-free throughput.  The bound is deliberately loose -- it exists to catch
pathological regressions (respawn storms, a breaker that never opens,
rebuild-per-shard instead of rebuild-per-failure), not to promise crashes
are cheap.

Median and p99 per-batch latency plus fixes/s for both configurations are
emitted to ``BENCH_resilience.json``.  Run with ``--bench-smoke`` for the
untimed CI canary: fewer batches, equality still asserted, the throughput
bound skipped (and recorded as skipped in the JSON).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.eval import format_table
from repro.geometry.vector import Point2D, bearing_deg
from repro.testbed.office import OfficeTestbed
from repro.testing import faults

from conftest import run_once

GRID_RESOLUTION_M = 0.25
CLIENTS_PER_BATCH = 16
NUM_WORKERS = 2
NUM_BATCHES = 25
CRASH_PROBABILITY = 0.1
#: Seed of the per-worker crash schedule: the first sub-0.1 draw sits at a
#: worker's 7th shard, so a respawned pool serves several batches before
#: its next crash.
CRASH_SEED = 5
#: Faulty throughput must stay above this fraction of fault-free.
DEGRADED_THROUGHPUT_FLOOR = 0.1
#: Reduced batch count for the --bench-smoke CI canary.
SMOKE_BATCHES = 4
RESULTS_PATH = os.path.join(os.environ.get("BENCH_OUTPUT_DIR", "."),
                            "BENCH_resilience.json")


def _synthesize_clients(testbed: OfficeTestbed, count: int,
                        rng: np.random.Generator
                        ) -> dict[str, dict[str, list[AoASpectrum]]]:
    angles = default_angle_grid(1.0)
    sites = [(site.ap_id, site.position, site.orientation_deg)
             for site in testbed.ap_sites]
    xmin, ymin, xmax, ymax = testbed.bounds
    clients: dict[str, dict[str, list[AoASpectrum]]] = {}
    for index in range(count):
        position = Point2D(rng.uniform(xmin + 1.0, xmax - 1.0),
                           rng.uniform(ymin + 1.0, ymax - 1.0))
        per_ap: dict[str, list[AoASpectrum]] = {}
        for ap_id, ap_position, orientation_deg in sites:
            bearing = bearing_deg(ap_position, position)
            local = (angles - (bearing - orientation_deg) + 180.0) % 360.0 \
                - 180.0
            power = np.exp(-0.5 * (local / 8.0) ** 2) \
                + 0.02 * rng.random(angles.shape[0])
            per_ap[ap_id] = [AoASpectrum(
                angles, power, ap_position=ap_position,
                ap_orientation_deg=orientation_deg, ap_id=ap_id)]
        clients[f"client-{index}"] = per_ap
    return clients


def _service(testbed: OfficeTestbed, backend: str) -> ArrayTrackService:
    config = ArrayTrackConfig(bounds=testbed.bounds).updated({
        "server.localizer.grid_resolution_m": GRID_RESOLUTION_M,
        "parallel.backend": backend,
        "parallel.num_workers": NUM_WORKERS,
        "parallel.min_clients_per_worker": 2,
    })
    return ArrayTrackService(config)


def _assert_identical(name: str, actual, reference) -> None:
    assert list(actual) == list(reference), (
        f"{name} returned clients out of order")
    for client_id, expected in reference.items():
        fix = actual[client_id]
        assert (fix.position.x, fix.position.y) \
            == (expected.position.x, expected.position.y), (
            f"{name} fix for {client_id} diverged from the serial path")
        assert fix.likelihood == expected.likelihood, (
            f"{name} likelihood for {client_id} diverged")


def _timed_batches(service: ArrayTrackService, clients, reference,
                   name: str, num_batches: int) -> list[float]:
    """Per-batch wall times; every batch asserted bit-identical."""
    _assert_identical(name, service.localize_many(clients), reference)
    latencies = []
    for _ in range(num_batches):
        start = time.perf_counter()
        fixes = service.localize_many(clients)
        latencies.append(time.perf_counter() - start)
        _assert_identical(name, fixes, reference)
    return latencies


def measure_resilience(num_batches: int = NUM_BATCHES) -> dict[str, object]:
    """Throughput and latency with and without injected worker crashes."""
    testbed = OfficeTestbed()
    rng = np.random.default_rng(2026)
    clients = _synthesize_clients(testbed, CLIENTS_PER_BATCH, rng)
    serial_service = _service(testbed, backend="none")
    reference = serial_service.localize_many(clients)
    serial_service.close()

    faults.deactivate()
    fault_free_service = _service(testbed, backend="process")
    try:
        fault_free = _timed_batches(fault_free_service, clients, reference,
                                    "fault-free", num_batches)
    finally:
        fault_free_service.close()

    faults.activate(faults.FaultSpec(
        kind="kill-worker-mid-shard", stage="after-attach",
        probability=CRASH_PROBABILITY, seed=CRASH_SEED))
    try:
        faulty_service = _service(testbed, backend="process")
        try:
            faulty = _timed_batches(faulty_service, clients, reference,
                                    "10% crash rate", num_batches)
            pool_stats = faulty_service._procpool.stats.snapshot()
            fallbacks = faulty_service.health()["fallbacks"]["served_by"]
        finally:
            faulty_service.close()
    finally:
        faults.deactivate()

    def summarize(latencies: list[float]) -> dict[str, float]:
        total = float(np.sum(latencies))
        return {
            "batches": len(latencies),
            "fixes_per_s": len(latencies) * CLIENTS_PER_BATCH / total,
            "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        }

    fault_free_summary = summarize(fault_free)
    faulty_summary = summarize(faulty)
    results: dict[str, object] = {
        "clients_per_batch": CLIENTS_PER_BATCH,
        "num_workers": NUM_WORKERS,
        "cpu_count": os.cpu_count(),
        "crash_probability": CRASH_PROBABILITY,
        "crash_seed": CRASH_SEED,
        "fault_free": fault_free_summary,
        "faulty": {**faulty_summary, "pool": pool_stats,
                   "fallbacks": fallbacks},
        "throughput_ratio": (faulty_summary["fixes_per_s"]
                             / fault_free_summary["fixes_per_s"]),
        "degraded_throughput_floor": DEGRADED_THROUGHPUT_FLOOR,
        "floor_applies": num_batches >= NUM_BATCHES,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


def test_resilience_overhead(benchmark, bench_smoke):
    """E-RESILIENCE: crash-recovery overhead, bit-identical throughout.

    Every batch of both configurations must match the serial fixes
    exactly; at full size the faulty configuration must additionally
    retain >= 10% of fault-free throughput (the degraded-throughput
    bound -- see the module docstring for why it is deliberately loose).
    """
    num_batches = SMOKE_BATCHES if bench_smoke else NUM_BATCHES
    results = run_once(benchmark, measure_resilience, num_batches)
    rows = []
    for name in ("fault_free", "faulty"):
        entry = results[name]
        rows.append([name.replace("_", "-"),
                     f"{entry['fixes_per_s']:.0f}",
                     f"{entry['p50_ms']:.0f}", f"{entry['p99_ms']:.0f}"])
    print()
    print(format_table(
        ["configuration", "fixes/s", "p50 (ms)", "p99 (ms)"],
        rows,
        title=f"Process pool, {results['clients_per_batch']} "
              f"clients/batch, {NUM_WORKERS} workers, "
              f"{results['crash_probability']:.0%} crash rate"))
    pool = results["faulty"]["pool"]
    fallbacks = results["faulty"]["fallbacks"]
    print(f"crashes absorbed: {pool['broken_pools']} broken pools, "
          f"{pool['rebuilds']} rebuilds, "
          f"{fallbacks.get('serial', 0)} batches served by the serial rung")
    print(f"throughput ratio: {results['throughput_ratio']:.2f} "
          f"(floor {DEGRADED_THROUGHPUT_FLOOR}, "
          f"{'applies' if results['floor_applies'] else 'skipped in smoke'})")
    print(f"results written to {RESULTS_PATH}")
    if results["floor_applies"]:
        assert results["throughput_ratio"] >= DEGRADED_THROUGHPUT_FLOOR, (
            f"the process pool kept only {results['throughput_ratio']:.0%} "
            f"of fault-free throughput under a "
            f"{results['crash_probability']:.0%} crash rate; the degraded "
            f"bound is {DEGRADED_THROUGHPUT_FLOOR:.0%}")
