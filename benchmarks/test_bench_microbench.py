"""Microbenchmarks: Table 1, Section 2.4 peak detection, Section 2.5 seeding.

* Table 1: peak stability under small movements.
* ``find_peaks`` on a roaming capture against the loop reference in
  ``tests/core/_oracle.py``: bit-equal, and at least 2x faster (8.6x on
  a shared 2-CPU machine).  Results are also written to
  ``BENCH_peaks.json``.
* Bound-and-prune seeding of :class:`~repro.core.batch.BatchLocalizer`
  against the oracle's full Equation 8 fold plus full-sort seeds, on 64
  clients of the office testbed: bit-equal, and at least 2.5x faster.
"""

import json
import os
import time

import numpy as np

from repro.core import (AoASpectrum, BatchLocalizer, LocalizerConfig,
                        MultipathSuppressor, default_angle_grid, find_peaks)
from repro.eval import format_table, table1_peak_stability
from repro.geometry import Point2D, bearing_deg
from repro.testbed import build_office_testbed

from conftest import run_once
from tests.core._oracle import (reference_find_peaks, reference_seeds,
                                roaming_groups, synthesize_likelihood)

#: Roaming capture of the peak-detection floor: 4 clients x 5 steps x 6
#: APs x 3 frames = 360 spectra.
PEAK_CLIENTS = 4
PEAK_STEPS = 5
PEAK_ROUNDS = 5
PEAK_SPEEDUP_FLOOR = 2.0
#: Machine-readable results for cross-PR perf tracking.
PEAK_RESULTS_PATH = os.path.join(os.environ.get("BENCH_OUTPUT_DIR", "."),
                                 "BENCH_peaks.json")


def test_table1_peak_stability(benchmark):
    """E-TAB1: direct-path peaks are stable, reflection peaks change.

    The paper measures, over 100 random positions, how often the direct and
    reflection peaks move by more than five degrees when the client moves
    5 cm (Table 1: 71 / 18 / 8 / 3 percent).  The simulated clutter is not
    identical to the authors' building, so the asserted shape is the
    qualitative one the multipath-suppression algorithm relies on: the
    direct-path peak is stable far more often than not, and a direct-path
    change co-occurring with stable reflections (the only failure case of
    the Figure 8 algorithm) is rare.
    """
    result = run_once(benchmark, table1_peak_stability, 100)
    rows = [[scenario, f"{fraction * 100:.0f}%"]
            for scenario, fraction in result.as_dict().items()]
    print()
    print(format_table(["Scenario", "Frequency"], rows,
                       title="Table 1: peak stability under 5 cm movement"))
    assert result.total_positions == 100
    assert result.fraction_direct_same >= 0.6
    assert result.fraction_direct_changed_reflection_same <= 0.2


def measure_peak_detection(num_clients: int = PEAK_CLIENTS,
                           num_steps: int = PEAK_STEPS,
                           rounds: int = PEAK_ROUNDS) -> dict[str, float]:
    """Time ``find_peaks`` against its loop reference on roaming spectra.

    The two run interleaved, one whole pass each per round, and each
    keeps its best round, so a burst of load on a shared machine slows
    both or neither.  Every pass must return the same peaks, bit for bit.
    """
    spectra = [spectrum
               for group in roaming_groups(num_clients, num_steps)
               for spectrum in group]
    height = MultipathSuppressor().min_relative_height
    best = {"array": float("inf"), "loop": float("inf")}
    for _ in range(rounds):
        found = {}
        for name, detect in (("array", find_peaks),
                             ("loop", reference_find_peaks)):
            start = time.perf_counter()
            found[name] = [detect(spectrum, height) for spectrum in spectra]
            best[name] = min(best[name], time.perf_counter() - start)
        assert found["array"] == found["loop"], \
            "array find_peaks diverged from the loop reference"
    return {
        "num_spectra": len(spectra),
        "rounds": rounds,
        "array_us_per_call": best["array"] / len(spectra) * 1e6,
        "loop_us_per_call": best["loop"] / len(spectra) * 1e6,
        "speedup": best["loop"] / best["array"],
    }


def test_find_peaks_speedup_floor(benchmark):
    """E-PEAKS: array ``find_peaks`` >= 2x its loop reference, bit-equal.

    Section 2.4 runs peak detection on every spectrum of a streaming
    group, so a grid-point loop creeping back into it would show up here
    first.  Results are written to ``BENCH_peaks.json``.
    """
    results = run_once(benchmark, measure_peak_detection)
    with open(PEAK_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print()
    print(format_table(
        ["implementation", "us/call", "vs loop"],
        [["loop reference", f"{results['loop_us_per_call']:.0f}", "1.0x"],
         ["array", f"{results['array_us_per_call']:.0f}",
          f"{results['speedup']:.1f}x"]],
        title=f"find_peaks on {results['num_spectra']} roaming spectra "
              f"(best of {results['rounds']})"))
    print(f"results written to {PEAK_RESULTS_PATH}")
    assert results["speedup"] >= PEAK_SPEEDUP_FLOOR


#: Section 2.5 seeding floor: the batch_refine shape (64 clients, the six
#: office APs, a 0.25 m grid, three seeds).
SEED_CLIENTS = 64
SEED_ROUNDS = 5
SEED_SPEEDUP_FLOOR = 2.5


def office_clients(num_clients: int, seed: int = 1):
    """Clients with one Gaussian-lobe spectrum per office AP.

    Each lobe points at the client's true bearing (8 degrees wide, plus a
    2% noise floor).  Returns the testbed bounds and the client batch.
    """
    testbed = build_office_testbed()
    rng = np.random.default_rng(seed)
    angles = default_angle_grid(1.0)
    xmin, ymin, xmax, ymax = testbed.bounds
    clients = {}
    for index in range(num_clients):
        target = Point2D(rng.uniform(xmin + 1.0, xmax - 1.0),
                         rng.uniform(ymin + 1.0, ymax - 1.0))
        spectra = []
        for site in testbed.ap_sites:
            bearing = bearing_deg(site.position, target)
            local = (angles - (bearing - site.orientation_deg) + 180.0) \
                % 360.0 - 180.0
            power = np.exp(-0.5 * (local / 8.0) ** 2) \
                + 0.02 * rng.random(angles.shape[0])
            spectra.append(AoASpectrum(
                angles, power, ap_position=site.position,
                ap_orientation_deg=site.orientation_deg, ap_id=site.ap_id))
        clients[f"client-{index:02d}"] = spectra
    return testbed.bounds, clients


def measure_synthesis_seeding(num_clients: int = SEED_CLIENTS,
                              rounds: int = SEED_ROUNDS) -> dict[str, float]:
    """Time pruned seeding against the full fold plus full-sort seeds.

    The localizer's geometry tables are warmed first, as in a running
    server.  The two run interleaved, one whole batch each per round, and
    each keeps its best round; every round must pick the same seeds, bit
    for bit.
    """
    bounds, clients = office_clients(num_clients)
    config = LocalizerConfig(grid_resolution_m=0.25)
    localizer = BatchLocalizer(bounds, config)
    localizer.seeds(clients, config.num_seeds)

    def pruned():
        return localizer.seeds(clients, config.num_seeds)

    def full_fold():
        return {key: reference_seeds(
                    synthesize_likelihood(spectra, bounds,
                                          config.grid_resolution_m,
                                          floor=config.spectrum_floor),
                    config.num_seeds)
                for key, spectra in clients.items()}

    best = {"pruned": float("inf"), "full": float("inf")}
    for _ in range(rounds):
        found = {}
        for name, seed in (("pruned", pruned), ("full", full_fold)):
            start = time.perf_counter()
            found[name] = seed()
            best[name] = min(best[name], time.perf_counter() - start)
        assert found["pruned"] == found["full"], \
            "pruned seeding diverged from the full-fold oracle"
    return {
        "num_clients": num_clients,
        "rounds": rounds,
        "pruned_ms": best["pruned"] * 1e3,
        "full_ms": best["full"] * 1e3,
        "speedup": best["full"] / best["pruned"],
    }


def test_synthesis_seeding_speedup_floor(benchmark):
    """E-SEEDS: pruned Section 2.5 seeding >= 2.5x the full fold, bit-equal.

    Seeding reads only the few cells that can still hold a seed; a full
    grid fold creeping back into it would show up here first.
    """
    results = run_once(benchmark, measure_synthesis_seeding)
    print()
    print(format_table(
        ["implementation", "ms/batch", "vs full fold"],
        [["full fold + sort", f"{results['full_ms']:.1f}", "1.0x"],
         ["bound and prune", f"{results['pruned_ms']:.1f}",
          f"{results['speedup']:.1f}x"]],
        title=f"Section 2.5 seeds of {results['num_clients']} clients "
              f"(best of {results['rounds']})"))
    assert results["speedup"] >= SEED_SPEEDUP_FLOOR
