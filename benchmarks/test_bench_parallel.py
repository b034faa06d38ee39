"""Benchmark: vectorized refinement + sharded parallel service throughput.

The Section 2.5 refinement used to be the scaling cliff of the batched
engine: grid synthesis ran in stacked NumPy passes, then hill climbing fell
back to one Python likelihood call per candidate point per climber.  This
benchmark measures end-to-end ``ArrayTrackService.localize_many`` over the
office testbed with refinement *enabled*, three ways:

* ``serial seed`` -- the pre-optimization path: the serial Section 2.5
  reference in ``tests/core/_oracle.py`` (grid seeds, then per-candidate
  Python hill climbing, one thread) over the same localizer config;
* ``vectorized`` -- the batched refiner
  (:func:`repro.core.optimizer.refine_many`): every round scores the
  stacked candidates of all clients' climbers in one pass across all slots;
* ``vectorized + processes`` -- the same, plus ``parallel.backend=process``
  sharding across one spawned worker process per visible CPU, each
  shard's spectra pickled to its worker (no interpreter lock shared
  between shards).

Asserted: the vectorized configuration beats the serial seed path by >= 3x
at 256 clients, the process configuration additionally beats the
vectorized one by >= 2x *on a multi-core runner* (the bar is skipped, and
recorded in the JSON, when fewer than 4 CPUs are visible -- sharding over
two cores cannot double the rate), and every configuration produces fixes
bit-for-bit identical to the serial seed path (the refinement replay and
the shard merge preserve every tie-break).

Timings are emitted to ``BENCH_parallel.json`` (same schema style as
``BENCH_frontend.json``) so the perf trajectory covers parallel scale-out.

Run with ``--bench-smoke`` for an untimed single-repetition equality canary
at a reduced client count: the cross-backend bit-equality (process backend
included) is still asserted there, the speedup bars only at full size.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.eval import format_table
from repro.geometry.vector import Point2D, bearing_deg
from repro.testbed.office import OfficeTestbed

from conftest import run_once
from tests.core._oracle import reference_refinement

GRID_RESOLUTION_M = 0.25
NUM_CLIENTS = 256
#: One worker per visible CPU: more workers than cores only time-slice.
NUM_WORKERS = os.cpu_count() or 1
REPETITIONS = 3
SPEEDUP_FLOOR = 3.0
#: Process-over-vectorized bar; only meaningful with real cores to spread
#: over.
PROCESS_VS_VECTORIZED_FLOOR = 2.0
MIN_CPUS_FOR_PROCESS_BAR = 4
#: Reduced problem size for the --bench-smoke CI canary.
SMOKE_CLIENTS = 24
#: Machine-readable results for cross-PR perf tracking.
RESULTS_PATH = os.path.join(os.environ.get("BENCH_OUTPUT_DIR", "."),
                            "BENCH_parallel.json")


def _synthesize_clients(testbed: OfficeTestbed, count: int,
                        rng: np.random.Generator
                        ) -> dict[str, dict[str, list[AoASpectrum]]]:
    """Build per-AP spectra for ``count`` clients at random positions."""
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
            local = (angles - (bearing - orientation_deg) + 180.0) % 360.0 - 180.0
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


def _timed(call):
    """Return ``call()``'s result and median time over the repetitions.

    One untimed warm-up call runs first (cache warm-up, and for the process
    backend the worker spawn + per-worker cache warm-up).
    """
    result = call()
    samples = []
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        result = call()
        samples.append(time.perf_counter() - start)
    return result, float(np.median(samples))


def measure_parallel(num_clients: int = NUM_CLIENTS) -> dict[str, object]:
    """Time the four refinement/sharding configurations over one batch.

    Every configuration is timed by :func:`_timed`, and each service is
    closed right after its run; bit-equality against the serial seed fixes
    is asserted for every other configuration.  Results are written to
    :data:`RESULTS_PATH`.
    """
    testbed = OfficeTestbed()
    rng = np.random.default_rng(2026)
    clients = _synthesize_clients(testbed, num_clients, rng)
    services = {
        "vectorized": _service(testbed, backend="none"),
        "vectorized + processes": _service(testbed, backend="process"),
    }
    # The serial seed climbs what the server would synthesize: each AP's
    # single spectrum, in per-AP order.
    localizer = services["vectorized"].config.server.localizer
    processed = {client_id: [spectra[0] for spectra in per_ap.values()]
                 for client_id, per_ap in clients.items()}
    estimates: dict[str, dict[str, object]] = {}
    timings: dict[str, float] = {}
    estimates["serial seed"], timings["serial seed"] = _timed(
        functools.partial(reference_refinement, testbed.bounds, localizer,
                          processed))
    for name, service in services.items():
        estimates[name], timings[name] = _timed(
            functools.partial(service.localize_many, clients))
        service.close()
    reference = estimates["serial seed"]
    for name in ("vectorized", "vectorized + processes"):
        assert list(estimates[name]) == list(reference), (
            f"{name} returned clients out of order")
        for client_id, expected in reference.items():
            actual = estimates[name][client_id]
            assert (actual.position.x, actual.position.y) \
                == (expected.position.x, expected.position.y), (
                f"{name} fix for {client_id} diverged from the serial path")
            assert actual.likelihood == expected.value, (
                f"{name} likelihood for {client_id} diverged")
    serial_s = timings["serial seed"]
    results: dict[str, object] = {
        "num_clients": num_clients,
        "num_workers": NUM_WORKERS,
        "cpu_count": os.cpu_count(),
        "configs": {
            name: {
                "seconds": seconds,
                "fixes_per_s": num_clients / seconds,
                "speedup_vs_serial": serial_s / seconds,
            }
            for name, seconds in timings.items()},
        "process_vs_vectorized": (timings["vectorized"]
                                  / timings["vectorized + processes"]),
        "process_bar_applies": (os.cpu_count() or 1)
        >= MIN_CPUS_FOR_PROCESS_BAR,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


def test_parallel_localization_speedup(benchmark, bench_smoke):
    """E-PARALLEL: sharded refinement speedups, bit-identical to serial.

    The serial seed path re-enters the Equation 8 likelihood once per
    candidate point of every climber; the vectorized refiner folds each
    round's candidates in stacked passes, and the process backend spreads
    shards of the batch over worker processes.  All are asserted
    bit-identical to the serial fixes at any size; the speedup bars apply
    at 256 clients (the process-over-vectorized bar additionally needs
    >= 4 visible CPUs).
    """
    num_clients = SMOKE_CLIENTS if bench_smoke else NUM_CLIENTS
    results = run_once(benchmark, measure_parallel, num_clients)
    configs: dict[str, dict[str, float]] = results["configs"]
    count = results["num_clients"]
    rows = [[name, f"{entry['seconds'] * 1e3:.0f}",
             f"{entry['fixes_per_s']:.0f}",
             f"{entry['speedup_vs_serial']:.1f}x"]
            for name, entry in configs.items()]
    print()
    print(format_table(
        ["configuration", "batch (ms)", "fixes/s", "vs serial seed"],
        rows,
        title=f"Refined localize_many, office testbed, {count} clients, "
              f"{NUM_WORKERS} workers, {results['cpu_count']} cpus"))
    bar_note = "applies" if results["process_bar_applies"] \
        else "skipped: fewer than 4 visible CPUs"
    print(f"process vs vectorized: {results['process_vs_vectorized']:.2f}x "
          f"(bar {bar_note})")
    print(f"results written to {RESULTS_PATH}")
    if not bench_smoke:
        speedup = configs["vectorized"]["speedup_vs_serial"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized refinement must be >= {SPEEDUP_FLOOR}x "
            f"the serial seed path, got {speedup:.2f}x")
        assert configs["vectorized"]["seconds"] \
            <= configs["serial seed"]["seconds"], (
            "the vectorized path must not lose to the serial seed path")
        if results["process_bar_applies"]:
            process_speedup = \
                configs["vectorized + processes"]["speedup_vs_serial"]
            assert process_speedup >= SPEEDUP_FLOOR, (
                f"process sharding must be >= {SPEEDUP_FLOOR}x the serial "
                f"seed path on a multi-core runner, "
                f"got {process_speedup:.2f}x")
            assert results["process_vs_vectorized"] \
                >= PROCESS_VS_VECTORIZED_FLOOR, (
                f"process sharding must be >= "
                f"{PROCESS_VS_VECTORIZED_FLOOR}x the unsharded vectorized "
                f"path on a multi-core runner, "
                f"got {results['process_vs_vectorized']:.2f}x")


if __name__ == "__main__":
    print(json.dumps(measure_parallel(NUM_CLIENTS), indent=2))
