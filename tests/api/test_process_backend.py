"""Cross-backend equality matrix for the process parallel backend.

The contract under test: ``parallel.backend="process"`` produces bit-for-bit
the same fixes, in the same client order, as the serial path, for every
batched entry point (``localize_many``, ``localize_buffered``, ``tick``,
``flush``) at mixed shard sizes --
including batches below ``2 * min_clients_per_worker``, where the process
service silently stays serial.
"""

import pickle
from types import MappingProxyType

import numpy as np
import pytest

from repro.api import ArrayTrackConfig, ArrayTrackService, _procpool
from repro.api._procpool import (_shard_table, drain_shard, live_segments,
                                 shm_leak_events)
from repro.channel import MultipathChannel
from repro.core import AoASpectrum, default_angle_grid
from repro.geometry import Point2D, bearing_deg
from repro.server.backend import ArrayTrackServer

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]
#: Small pool: spawn cost dominates on CI runners, equality does not need
#: more workers to be exercised.
NUM_WORKERS = 2
MIN_CLIENTS_PER_WORKER = 2
#: Mixed batch sizes: 3 stays below 2 * min_clients_per_worker (serial
#: fallback inside the process-backend service), 7 fans out unevenly,
#: 22 exercises several clients per shard.
BATCH_SIZES = [3, 7, 22]


def _spectrum_towards(ap_position, target, timestamp_s=0.0, client_id="",
                      noise=None):
    angles = default_angle_grid(1.0)
    bearing = bearing_deg(ap_position, target)
    distance = np.minimum(np.abs(angles - bearing),
                          360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / 3.0) ** 2) + 1e-4
    if noise is not None:
        power = power + noise
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_id=f"ap@{ap_position.x:.0f},{ap_position.y:.0f}",
                       client_id=client_id, timestamp_s=timestamp_s)


def _clients(count, seed):
    """Randomized batch: random positions plus per-spectrum noise."""
    rng = np.random.default_rng(seed)
    grid_points = default_angle_grid(1.0).shape[0]
    clients = {}
    for index in range(count):
        target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
        clients[f"c{index}"] = {
            f"ap{i}": [_spectrum_towards(
                position, target, noise=0.01 * rng.random(grid_points))]
            for i, position in enumerate(AP_POSITIONS)}
    return clients


def _config(backend, **overrides):
    config = ArrayTrackConfig(bounds=BOUNDS).updated(
        {"server.localizer.grid_resolution_m": 0.25, **overrides})
    if backend != "none":
        config = config.updated({
            "parallel.backend": backend,
            "parallel.num_workers": NUM_WORKERS,
            "parallel.min_clients_per_worker": MIN_CLIENTS_PER_WORKER})
    return config


def _assert_identical(actual, expected):
    assert list(actual) == list(expected)
    for key in expected:
        assert actual[key].position.x == expected[key].position.x
        assert actual[key].position.y == expected[key].position.y
        assert actual[key].likelihood == expected[key].likelihood
        assert actual[key].num_aps == expected[key].num_aps


class TestLocalizeManyMatrix:
    @pytest.fixture(scope="class")
    def process_service(self):
        # One persistent pool for the whole size sweep: workers spawn once,
        # which is exactly how the backend is meant to amortize its cost.
        with ArrayTrackService(_config("process")) as service:
            yield service

    @pytest.mark.parametrize("count", BATCH_SIZES)
    def test_equality_across_backends(self, process_service, count):
        clients = _clients(count, seed=100 + count)
        serial = ArrayTrackService(_config("none")).localize_many(clients)
        processed = process_service.localize_many(clients)
        _assert_identical(processed, serial)

    def test_read_only_mappings_are_sharded_like_dicts(self, process_service):
        # A caller's Mapping need not pickle (a mappingproxy does not); the
        # pool ships its shards as plain dicts and lists.
        clients = _clients(7, seed=5)
        serial = ArrayTrackService(_config("none")).localize_many(clients)
        frozen = MappingProxyType({
            client_id: MappingProxyType({ap_id: tuple(frames)
                                         for ap_id, frames in per_ap.items()})
            for client_id, per_ap in clients.items()})
        _assert_identical(process_service.localize_many(frozen), serial)
        assert process_service._procpool.started

    def test_small_batch_never_spawns_workers(self):
        # Run the smallest batch against a *fresh* process service: below
        # 2 * min_clients_per_worker no shards form and no pool starts.
        with ArrayTrackService(_config("process")) as service:
            fixes = service.localize_many(_clients(3, seed=7))
            assert len(fixes) == 3
            assert service._procpool is None


class TestLocalizeBufferedMatrix:
    def _build(self, backend):
        service = ArrayTrackService(_config(backend))
        for index, position in enumerate(AP_POSITIONS):
            ap = service.build_ap(f"ap{index}", position,
                                  rng=np.random.default_rng(index))
            for client in range(6):
                channel = MultipathChannel.from_bearings(
                    [20.0 + 17.0 * client], [1.0], direct_index=0,
                    client_id=f"c{client}", ap_id=ap.ap_id)
                ap.overhear(channel, timestamp_s=0.0)
        return service

    def test_equality_across_backends(self):
        client_ids = [f"c{i}" for i in range(6)]
        serial = self._build("none").localize_buffered(client_ids)
        with self._build("process") as process_service:
            processed = process_service.localize_buffered(client_ids)
        _assert_identical(processed, serial)


class TestStreamingMatrix:
    def _ingest(self, service, count, seed=11, frame_gap_s=0.01,
                stamp_spectra=True):
        """Ingest two frames per client and AP, ``frame_gap_s`` apart.

        With ``stamp_spectra`` off, every spectrum carries timestamp 0.0
        and only the ingest call knows the frame's time, so grouping on
        ``spectrum.timestamp_s`` instead of the ingest-resolved time
        would change the suppression groups.
        """
        rng = np.random.default_rng(seed)
        grid_points = default_angle_grid(1.0).shape[0]
        for index in range(count):
            target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
            for i, position in enumerate(AP_POSITIONS):
                for frame in range(2):
                    timestamp = frame * frame_gap_s
                    service.ingest(
                        f"ap{i}",
                        _spectrum_towards(
                            position, target,
                            timestamp_s=timestamp if stamp_spectra else 0.0,
                            noise=0.01 * rng.random(grid_points)),
                        client_id=f"c{index}",
                        timestamp_s=timestamp)

    @pytest.mark.parametrize("suppress, ingest", [
        (False, {}),
        (True, {}),
        # Two bursts 1 s apart on the ingest clock, one stamp on the
        # spectra: only the ingest-resolved times split the groups.
        (True, {"frame_gap_s": 1.0, "stamp_spectra": False}),
    ])
    def test_tick_equality_across_backends(self, suppress, ingest):
        overrides = {"session.emit_every_frames": 1,
                     "session.suppress_multipath": suppress}
        results = {}
        for backend in ("none", "process"):
            with ArrayTrackService(_config(backend, **overrides)) as service:
                self._ingest(service, 10, **ingest)
                results[backend] = service.tick()
                assert all(session.pending_frames == 0
                           for session in service.sessions.values())
                assert all(service.latest_fix(key) is not None
                           for key in results[backend])
        _assert_identical(results["process"], results["none"])

    def test_flush_equality_across_backends(self):
        overrides = {"session.emit_every_frames": 0}
        results = {}
        for backend in ("none", "process"):
            with ArrayTrackService(_config(backend, **overrides)) as service:
                self._ingest(service, 8, seed=23)
                results[backend] = service.flush()
        _assert_identical(results["process"], results["none"])


def _bursts(count, seed, frames=2, gap_s=0.01):
    """``frames`` spectra per client and AP, ``gap_s`` apart, all on one
    shared angle grid (as the frontend's rows share theirs)."""
    rng = np.random.default_rng(seed)
    angles = default_angle_grid(1.0)
    clients = {}
    for index in range(count):
        target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
        clients[f"c{index}"] = {
            f"ap{i}": [AoASpectrum(
                angles,
                _spectrum_towards(position, target).power
                + 0.01 * rng.random(angles.shape[0]),
                ap_position=position, ap_id=f"ap{i}",
                client_id=f"c{index}", timestamp_s=frame * gap_s)
                for frame in range(frames)]
            for i, position in enumerate(AP_POSITIONS)}
    return clients


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


def _worker_parts(**overrides):
    """The server and suppressor a pool worker builds from its config."""
    config = _config("none", **overrides)
    return (ArrayTrackServer(config.bounds, config.server),
            config.suppressor)


class TestPickleTransport:
    """A shard crosses the pipe as pickled task arguments; what arrives
    must fold exactly as what the parent holds."""

    def test_shard_table_keeps_the_shard_rows_in_order(self):
        clients = _clients(5, seed=3)
        frozen = MappingProxyType({
            client_id: MappingProxyType({ap_id: tuple(frames)
                                         for ap_id, frames in per_ap.items()})
            for client_id, per_ap in clients.items()})
        table = _shard_table(frozen, ["c3", "c0"])
        assert list(table) == ["c3", "c0"]
        for client_id, per_ap in table.items():
            assert type(per_ap) is dict
            assert list(per_ap) == list(clients[client_id])
            for ap_id, frames in per_ap.items():
                assert type(frames) is list
                # Copied containers, the caller's own spectrum objects.
                assert all(a is b for a, b in zip(
                    frames, clients[client_id][ap_id], strict=True))

    def test_spectra_sharing_a_grid_arrive_sharing_one_grid(self):
        shard = _round_trip(_shard_table(_bursts(3, seed=4), ["c0", "c2"]))
        spectra = [spectrum for per_ap in shard.values()
                   for frames in per_ap.values() for spectrum in frames]
        assert len(spectra) == 2 * len(AP_POSITIONS) * 2
        assert all(spectrum.angles_deg is spectra[0].angles_deg
                   for spectrum in spectra)

    @pytest.mark.parametrize("suppress", [False, True],
                             ids=["first-frame", "earliest-group"])
    def test_pickled_shard_drains_like_the_original(self, suppress):
        server, suppressor = _worker_parts(**{
            "server.enable_multipath_suppression": suppress})
        shard = _shard_table(_bursts(4, seed=6), ["c1", "c3", "c0"])
        _assert_identical(drain_shard(server, suppressor, _round_trip(shard)),
                          drain_shard(server, suppressor, shard))

    def test_pickled_stream_times_drain_like_the_originals(self):
        server, suppressor = _worker_parts()
        clients = _bursts(4, seed=8)
        # Ingest-resolved times that split each AP's pair into two groups,
        # unlike the spectra's own 10 ms stamps.
        times = {client_id: {ap_id: [0.0, 1.0] for ap_id in per_ap}
                 for client_id, per_ap in clients.items()}
        shard = ["c2", "c0"]
        original = drain_shard(server, suppressor,
                               _shard_table(clients, shard),
                               _shard_table(times, shard))
        shipped = drain_shard(server, suppressor,
                              _round_trip(_shard_table(clients, shard)),
                              _round_trip(_shard_table(times, shard)))
        _assert_identical(shipped, original)

    def test_drain_task_folds_the_unpickled_shard_on_the_worker(
            self, monkeypatch):
        monkeypatch.setattr(_procpool, "_WORKER", None)
        config = _config("none")
        _procpool._initialize_worker(config, (), None)
        clients = _bursts(3, seed=9)
        serial = ArrayTrackService(config).localize_many(clients)
        shard = _round_trip(_shard_table(clients, list(clients)))
        _assert_identical(_procpool._drain_task(shard, None), serial)


class TestPoolTeardown:
    def test_repeated_calls_reuse_one_pool_and_close_joins_it(self):
        service = ArrayTrackService(_config("process"))
        clients = _clients(8, seed=42)
        serial = ArrayTrackService(_config("none")).localize_many(clients)
        _assert_identical(service.localize_many(clients), serial)
        pool = service._procpool
        executor = pool._executor
        workers = list(executor._processes.values())
        assert workers
        for _ in range(2):
            _assert_identical(service.localize_many(clients), serial)
            assert pool._executor is executor
        assert pool.stats.rebuilds == 0
        # The transport leaves nothing behind for perfbench's leak check.
        assert live_segments() == frozenset()
        assert shm_leak_events() == 0
        service.close()
        assert service._procpool is None
        assert pool.closed
        assert all(not worker.is_alive() for worker in workers)
