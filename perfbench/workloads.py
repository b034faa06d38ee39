"""The benchmark's four workloads: seeded inputs, service set-up, one call.

Every workload is a closed loop from a single caller through the public
:class:`repro.api.ArrayTrackService` surface: the next call starts only
after the previous one returned.  Inputs are generated once per seed,
before any timing starts, and replayed cyclically, so the channel
simulation (several ms per frame) never enters a measurement.

* ``batch_refine`` -- ``localize_many`` over 64 synthetic clients per
  call, grid plus hill-climb refinement, serial backend: the Section 2.5
  synthesis alone.
* ``stream_track`` -- 8 roaming clients; each step ingests every AP's raw
  frame bursts with ``ingest_many`` and drains them with ``tick``: the full
  streaming pipeline (frontend, Section 2.4 suppression, synthesis,
  tracker).
* ``sweep_process`` -- ``localize_buffered`` over all 41 testbed sites,
  grid only, synthesis sharded over a 2-worker process pool.
* ``batch_crash`` -- ``localize_many`` over 16 synthetic clients on the
  process pool while a seeded fault plan kills workers mid-shard.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping

import numpy as np

from repro.ap import ArrayTrackAP
from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.channel import movement_track, random_waypoint_track
from repro.core.localizer import LocationEstimate
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.geometry.vector import Point2D, bearing_deg
from repro.testbed import (OfficeTestbed, ScenarioConfig, SimulatedDeployment,
                           build_office_testbed)
from repro.testing import faults

GRID_RESOLUTION_M = 0.25
NUM_WORKERS = 2
#: Simulation-time spacing of streaming steps (one burst per client each).
STEP_INTERVAL_S = 0.5
#: The degraded-mode fault plan: each pool worker dies (``os._exit`` after
#: attaching the shard's shared memory) with seeded probability 0.1 per
#: shard, so the supervisor's rebuild, retry and backoff path runs.
CRASH_PLAN = json.dumps([{"kind": "kill-worker-mid-shard",
                          "stage": "after-attach", "probability": 0.1,
                          "seed": 5}])

#: A client's fix, reduced to the values that must repeat bit for bit.
Answer = tuple[float, float, float]


def answer(estimate: LocationEstimate) -> Answer:
    return (estimate.position.x, estimate.position.y, estimate.likelihood)


class Workload:
    """One workload's pre-generated inputs and the call the loop repeats.

    ``call(service, index)`` serves input ``key(index)``; the inputs cycle
    with period ``num_inputs``.  ``truth[key]`` maps every client the call
    requests to its ground-truth position.  ``reference[key]``, when set
    before the loop, holds the answers a serial service gave for that
    input; otherwise the first answer served becomes the reference, so
    every replay must repeat it exactly.
    """

    name = ""
    #: True when no pool rebuild or backend fallback may happen.
    fault_free = True

    def __init__(self, updates: Mapping[str, object]) -> None:
        self.testbed: OfficeTestbed = build_office_testbed()
        self.config = ArrayTrackConfig(bounds=self.testbed.bounds).updated({
            "server.localizer.grid_resolution_m": GRID_RESOLUTION_M,
            **updates})
        #: APs registered with every service (their buffers hold the frames).
        self.aps: list[ArrayTrackAP] = []
        self.truth: list[dict[str, Point2D]] = []
        self.reference: dict[int, dict[str, Answer]] = {}

    @property
    def num_inputs(self) -> int:
        return len(self.truth)

    def key(self, index: int) -> int:
        return index % self.num_inputs

    def build(self, config: ArrayTrackConfig | None = None
              ) -> ArrayTrackService:
        """Construct the service and register the workload's APs."""
        service = ArrayTrackService(config or self.config)
        service.adopt_aps(self.aps)
        return service

    def call(self, service: ArrayTrackService,
             index: int) -> dict[str, LocationEstimate]:
        """Serve the workload's ``index``-th call."""
        raise NotImplementedError

    def serial_reference(self) -> None:
        """Answer every input once on a serial, fault-free service."""
        serial = self.config.updated({"parallel.backend": "none",
                                      "resilience.fault_plan": None})
        with self.build(serial) as service:
            for key in range(self.num_inputs):
                self.reference[key] = {
                    client_id: answer(estimate) for client_id, estimate
                    in self.call(service, key).items()}

    def close(self) -> None:
        """Undo any process-wide state the workload installed."""


def floor_positions(testbed: OfficeTestbed, count: int,
                    rng: np.random.Generator) -> list[Point2D]:
    """``count`` positions spread evenly over the floor, in random order.

    One uniform draw in each cell of a grid covering the search area (1 m
    margin): every seed covers the floor alike, so the median fix error
    moves little between seeds while each position is still random.
    """
    xmin, ymin, xmax, ymax = testbed.bounds
    xmin, ymin, xmax, ymax = xmin + 1.0, ymin + 1.0, xmax - 1.0, ymax - 1.0
    columns = math.ceil(math.sqrt(count * (xmax - xmin) / (ymax - ymin)))
    rows = math.ceil(count / columns)
    width, height = (xmax - xmin) / columns, (ymax - ymin) / rows
    positions = []
    for cell in rng.permutation(rows * columns)[:count]:
        row, column = divmod(int(cell), columns)
        positions.append(Point2D(
            xmin + width * (column + float(rng.uniform())),
            ymin + height * (row + float(rng.uniform()))))
    return positions


def synthetic_clients(testbed: OfficeTestbed, positions: list[Point2D],
                      first_index: int, rng: np.random.Generator
                      ) -> tuple[dict[str, dict[str, list[AoASpectrum]]],
                                 dict[str, Point2D]]:
    """Clients with one Gaussian-lobe spectrum per office AP.

    Each lobe points at the client's true bearing (8 degrees wide, plus a
    2% noise floor), so the batch exercises the Equation 8 fold and the
    hill climb without the frontend or suppression.
    """
    angles = default_angle_grid(1.0)
    clients: dict[str, dict[str, list[AoASpectrum]]] = {}
    truth: dict[str, Point2D] = {}
    for index, position in enumerate(positions, start=first_index):
        per_ap: dict[str, list[AoASpectrum]] = {}
        for site in testbed.ap_sites:
            bearing = bearing_deg(site.position, position)
            local = (angles - (bearing - site.orientation_deg) + 180.0) \
                % 360.0 - 180.0
            power = np.exp(-0.5 * (local / 8.0) ** 2) \
                + 0.02 * rng.random(angles.shape[0])
            per_ap[site.ap_id] = [AoASpectrum(
                angles, power, ap_position=site.position,
                ap_orientation_deg=site.orientation_deg, ap_id=site.ap_id)]
        client_id = f"client-{index:04d}"
        clients[client_id] = per_ap
        truth[client_id] = position
    return clients, truth


class BatchWorkload(Workload):
    """``localize_many`` over pre-generated synthetic client batches."""

    def __init__(self, seed: int, num_batches: int, clients_per_batch: int,
                 updates: Mapping[str, object]) -> None:
        super().__init__(updates)
        rng = np.random.default_rng(seed)
        positions = floor_positions(self.testbed,
                                    num_batches * clients_per_batch, rng)
        self.batches: list[dict[str, dict[str, list[AoASpectrum]]]] = []
        for start in range(0, len(positions), clients_per_batch):
            batch, truth = synthetic_clients(
                self.testbed, positions[start:start + clients_per_batch],
                start, rng)
            self.batches.append(batch)
            self.truth.append(truth)

    def call(self, service: ArrayTrackService,
             index: int) -> dict[str, LocationEstimate]:
        return service.localize_many(self.batches[self.key(index)])


class BatchRefine(BatchWorkload):
    name = "batch_refine"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, num_batches=2 if tiny else 16,
                         clients_per_batch=8 if tiny else 64,
                         updates={"parallel.backend": "none"})


class BatchCrash(BatchWorkload):
    name = "batch_crash"
    fault_free = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, num_batches=2 if tiny else 64,
                         clients_per_batch=16,
                         updates={"parallel.backend": "process",
                                  "parallel.num_workers": NUM_WORKERS,
                                  "parallel.min_clients_per_worker": 2,
                                  "resilience.fault_plan": CRASH_PLAN})
        self.serial_reference()

    def close(self) -> None:
        # Constructing the service exported the plan to the environment
        # of every worker spawned later; take it back out.
        faults.deactivate()


class StreamTrack(Workload):
    """Roaming clients streaming raw frame bursts into sessions."""

    name = "stream_track"
    NUM_CLIENTS = 8
    FRAMES_PER_BURST = 3
    NUM_STEPS = 20
    #: The deployment's default capture SNR.  At 8 dB (the edge-of-coverage
    #: roaming experiment) fix errors range from centimetres to 20 m and the
    #: median error of a run moves by tens of percent between seeds; the
    #: layers' shares of the step time are alike at both SNRs.
    SNR_DB = 25.0
    #: Corridor lanes the roamers walk along (y in metres).
    LANES = (9.5, 5.0, 13.0)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__({
            "server.enable_multipath_suppression": False,
            "session.emit_every_frames": self.FRAMES_PER_BURST,
            "session.suppress_multipath": True,
            "parallel.backend": "none",
        })
        num_clients = 2 if tiny else self.NUM_CLIENTS
        num_steps = 2 if tiny else self.NUM_STEPS
        deployment = SimulatedDeployment(self.testbed, ScenarioConfig(
            frames_per_client=self.FRAMES_PER_BURST, snr_db=self.SNR_DB,
            seed=seed))
        self.aps = list(deployment.aps.values())
        tracks = {}
        for index in range(num_clients):
            lane = self.LANES[index % len(self.LANES)]
            west, east = 5.0 + 1.5 * index, 36.0 - 1.5 * index
            if index % 2:
                west, east = east, west
            tracks[f"roamer-{index}"] = random_waypoint_track(
                Point2D(west, lane), Point2D(east, lane), num_samples=num_steps)
        walk_rng = np.random.default_rng(seed)
        #: Per step, every AP's raw buffer entries in arrival order.
        self.steps: list[dict[str, list]] = []
        for step in range(num_steps):
            for client_id, track in tracks.items():
                burst = movement_track(track[step], self.FRAMES_PER_BURST,
                                       max_step_m=0.05, rng=walk_rng)
                deployment.capture_client(client_id, positions=burst,
                                          start_time_s=step * STEP_INTERVAL_S)
            self.steps.append({ap.ap_id: ap.buffer.drain()
                               for ap in self.aps})
            self.truth.append({client_id: track[step]
                               for client_id, track in tracks.items()})

    def call(self, service: ArrayTrackService,
             index: int) -> dict[str, LocationEstimate]:
        for ap_id, entries in self.steps[self.key(index)].items():
            service.ingest_many(ap_id, entries)
        # Replayed bursts keep their capture timestamps (sessions group on
        # them); the tracker keys on now_s, which must strictly increase.
        return service.tick(now_s=(index + 1) * STEP_INTERVAL_S)


class SweepProcess(Workload):
    """A buffered sweep of every testbed site on the process pool."""

    name = "sweep_process"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__({
            "server.localizer.refine_with_hill_climbing": False,
            "parallel.backend": "process",
            "parallel.num_workers": NUM_WORKERS,
            "parallel.min_clients_per_worker": 2,
        })
        deployment = SimulatedDeployment(
            self.testbed, ScenarioConfig(frames_per_client=1, seed=seed))
        self.client_ids = self.testbed.client_ids()[:6 if tiny else None]
        for client_id in self.client_ids:
            deployment.capture_client(client_id)
        self.aps = list(deployment.aps.values())
        self.truth.append({client_id: self.testbed.client_position(client_id)
                           for client_id in self.client_ids})
        self.serial_reference()

    def call(self, service: ArrayTrackService,
             index: int) -> dict[str, LocationEstimate]:
        return service.localize_buffered(self.client_ids)


WORKLOADS = {workload.name: workload for workload in
             (BatchRefine, StreamTrack, SweepProcess, BatchCrash)}


def in_bounds(point: Point2D, bounds: tuple[float, float, float, float]
              ) -> bool:
    xmin, ymin, xmax, ymax = bounds
    return (math.isfinite(point.x) and math.isfinite(point.y)
            and xmin <= point.x <= xmax and ymin <= point.y <= ymax)
