"""Tests for the sharded parallel execution layer (the ``parallel`` section).

The contract under test: with ``parallel.backend="process"`` every batched
entry point (`localize_many`, `localize_buffered`, `tick`/`flush`) produces
bit-for-bit the same fixes, in the same client order, as the serial path --
sharding only changes *where* each shard's synthesis runs.
"""

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.api import ArrayTrackConfig, ArrayTrackService, ParallelConfig
from repro.channel import MultipathChannel
from repro.core import AoASpectrum, default_angle_grid
from repro.errors import ConfigurationError, EstimationError
from repro.geometry import Point2D, bearing_deg

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]


def _spectrum_towards(ap_position, target, timestamp_s=0.0, client_id=""):
    angles = default_angle_grid(1.0)
    bearing = bearing_deg(ap_position, target)
    distance = np.minimum(np.abs(angles - bearing),
                          360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / 3.0) ** 2) + 1e-4
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_id=f"ap@{ap_position.x:.0f},{ap_position.y:.0f}",
                       client_id=client_id, timestamp_s=timestamp_s)


def _clients(count, seed=3):
    rng = np.random.default_rng(seed)
    clients = {}
    for index in range(count):
        target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
        clients[f"c{index}"] = {
            f"ap{i}": [_spectrum_towards(p, target)]
            for i, p in enumerate(AP_POSITIONS)}
    return clients


def _service(parallel=None, **overrides):
    config = ArrayTrackConfig(bounds=BOUNDS).updated(
        {"server.localizer.grid_resolution_m": 0.25, **overrides})
    if parallel is not None:
        config = config.updated({
            f"parallel.{key}": value for key, value in parallel.items()})
    return ArrayTrackService(config)


#: Small pool: spawn cost dominates, equality does not need more workers.
PROCESS = {"backend": "process", "num_workers": 2,
           "min_clients_per_worker": 2}


@pytest.fixture(scope="module")
def process_service():
    """One process-backed service for every test its default config suits."""
    with _service(parallel=PROCESS) as service:
        yield service


def _assert_identical(sharded, serial):
    assert list(sharded) == list(serial)
    for key in serial:
        assert sharded[key].position.x == serial[key].position.x
        assert sharded[key].position.y == serial[key].position.y
        assert sharded[key].likelihood == serial[key].likelihood
        assert sharded[key].num_aps == serial[key].num_aps


class TestParallelConfigSection:
    def test_defaults_off(self):
        config = ArrayTrackConfig()
        assert config.parallel == ParallelConfig()
        assert config.parallel.backend == "none"

    def test_round_trips_with_non_default_values(self):
        config = ArrayTrackConfig(
            bounds=BOUNDS,
            parallel=ParallelConfig(backend="process", num_workers=2,
                                    min_clients_per_worker=4))
        restored = ArrayTrackConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.parallel.num_workers == 2
        assert ArrayTrackConfig.from_json(config.to_json()) == config

    def test_env_override_reaches_parallel_section(self):
        config = ArrayTrackConfig(bounds=BOUNDS).with_env_overrides({
            "ARRAYTRACK_PARALLEL__BACKEND": "process",
            "ARRAYTRACK_PARALLEL__NUM_WORKERS": "3",
        })
        assert config.parallel.backend == "process"
        assert config.parallel.num_workers == 3

    @pytest.mark.parametrize("kwargs", [
        {"backend": "fork"},
        {"backend": ""},
        # The thread backend is retired: it beat "none" on no measured
        # shape (docs/api.md).
        {"backend": "thread"},
        {"num_workers": 0},
        {"num_workers": 2.5},
        # bool is an int subclass; ARRAYTRACK_PARALLEL__NUM_WORKERS=true
        # must not silently become one worker that never fans out.
        {"num_workers": True},
        {"min_clients_per_worker": 0},
        {"min_clients_per_worker": False},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ParallelConfig(**kwargs)

    def test_invalid_value_names_path_from_dict(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ArrayTrackConfig.from_dict({"parallel": {"backend": "mpi"}})

    @pytest.mark.parametrize("load", [
        lambda: ArrayTrackConfig.from_dict(
            {"parallel": {"backend": "thread"}}),
        lambda: ArrayTrackConfig.from_json(
            '{"parallel": {"backend": "thread"}}'),
        lambda: ArrayTrackConfig().with_env_overrides(
            {"ARRAYTRACK_PARALLEL__BACKEND": "thread"}),
    ], ids=["dict", "json", "env"])
    def test_thread_backend_rejected_at_load(self, load):
        with pytest.raises(ConfigurationError,
                           match="'none' or 'process'.*'thread'"):
            load()


class TestShardedLocalizeMany:
    def test_bit_identical_to_serial_and_order_preserving(
            self, process_service):
        clients = _clients(24)
        serial = _service().localize_many(clients)
        _assert_identical(process_service.localize_many(clients), serial)

    def test_small_batches_stay_serial(self):
        service = _service(parallel={**PROCESS, "min_clients_per_worker": 8})
        # 9 clients < 2 shards x 8 -> no fan-out, and no pool is created.
        fixes = service.localize_many(_clients(9))
        assert len(fixes) == 9
        assert service._procpool is None

    def test_pool_is_lazy_and_close_is_idempotent(self):
        service = _service(parallel=PROCESS)
        assert service._procpool is None
        service.localize_many(_clients(6))
        assert service._procpool is not None
        service.close()
        assert service._procpool is None
        service.close()

    @pytest.mark.parametrize("parallel", [None, PROCESS],
                             ids=["none", "process"])
    def test_use_after_close_raises_clear_error(self, parallel):
        service = _service(parallel=parallel)
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.localize_many(_clients(6))
        with pytest.raises(ConfigurationError, match="closed"):
            service.tick()
        with pytest.raises(ConfigurationError, match="closed"):
            service.flush()
        with pytest.raises(ConfigurationError, match="closed"):
            service.localize_buffered(["c0"])

    def test_measured_processing_time_covers_whole_pass(
            self, process_service):
        process_service.localize_many(_clients(8))
        assert process_service.last_processing_s is not None
        assert process_service.last_processing_s > 0.0


class TestShardedStreaming:
    def _ingest(self, service, count):
        rng = np.random.default_rng(11)
        for index in range(count):
            target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
            for i, position in enumerate(AP_POSITIONS):
                for frame in range(2):
                    service.ingest(
                        f"ap{i}",
                        _spectrum_towards(position, target,
                                          timestamp_s=frame * 0.01),
                        client_id=f"c{index}",
                        timestamp_s=frame * 0.01)

    @pytest.mark.parametrize("suppress", [False, True])
    def test_tick_bit_identical_to_serial(self, suppress):
        overrides = {"session.emit_every_frames": 1,
                     "session.suppress_multipath": suppress}
        serial_svc = _service(**overrides)
        sharded_svc = _service(parallel=PROCESS, **overrides)
        self._ingest(serial_svc, 12)
        self._ingest(sharded_svc, 12)
        serial = serial_svc.tick()
        sharded = sharded_svc.tick()
        _assert_identical(sharded, serial)
        # Fixes landed in the tracker and the sessions drained, both paths.
        for service in (serial_svc, sharded_svc):
            assert all(session.pending_frames == 0
                       for session in service.sessions.values())
            assert all(service.latest_fix(key) is not None for key in sharded)
        sharded_svc.close()

    def test_flush_uses_sharding_too(self):
        overrides = {"session.emit_every_frames": 0}
        serial_svc = _service(**overrides)
        sharded_svc = _service(parallel=PROCESS, **overrides)
        self._ingest(serial_svc, 8)
        self._ingest(sharded_svc, 8)
        _assert_identical(sharded_svc.flush(), serial_svc.flush())
        sharded_svc.close()


class TestShardedBuffered:
    def test_localize_buffered_matches_serial(self):
        def build(parallel):
            service = _service(parallel=parallel)
            for index, position in enumerate(AP_POSITIONS):
                ap = service.build_ap(f"ap{index}", position,
                                      rng=np.random.default_rng(index))
                for client in range(6):
                    channel = MultipathChannel.from_bearings(
                        [30.0 + 15.0 * client], [1.0], direct_index=0,
                        client_id=f"c{client}", ap_id=ap.ap_id)
                    ap.overhear(channel, timestamp_s=0.0)
            return service

        client_ids = [f"c{i}" for i in range(6)]
        serial = build(None).localize_buffered(client_ids)
        sharded_svc = build({**PROCESS, "min_clients_per_worker": 1})
        sharded = sharded_svc.localize_buffered(client_ids)
        _assert_identical(sharded, serial)
        sharded_svc.close()


class TestProcessPoolFailureModes:
    """Lifecycle edge cases of the process backend's worker pool."""

    def _process_service(self):
        return _service(parallel={"backend": "process", "num_workers": 2,
                                  "min_clients_per_worker": 2})

    def _poisoned_clients(self):
        """A fan-out-sized batch whose last client fails in the worker."""
        clients = _clients(6)
        angles = default_angle_grid(1.0)
        clients["poisoned"] = {"ap0": [AoASpectrum(
            angles, np.ones_like(angles), ap_position=None,
            client_id="poisoned", ap_id="ap0")]}
        return clients

    def test_worker_exception_surfaces_original_error(self):
        with self._process_service() as service:
            with pytest.raises(EstimationError) as excinfo:
                service.localize_many(self._poisoned_clients())
            # concurrent.futures chains the remote traceback text onto the
            # unpickled exception, so the worker-side failure site is
            # visible to the caller instead of a bare opaque error.
            assert excinfo.value.__cause__ is not None
            assert "EstimationError" in str(excinfo.value.__cause__)
            # The pool survives a task-level exception and stays usable.
            fixes = service.localize_many(_clients(6))
            assert len(fixes) == 6

    def test_context_manager_exit_under_inflight_exception(self):
        service = self._process_service()
        with pytest.raises(EstimationError):
            with service:
                service.localize_many(_clients(6))   # spawn the workers
                service.localize_many(self._poisoned_clients())
        # The with-block closed the service despite the in-flight failure:
        # pools are gone and further use raises.
        assert service._procpool is None
        with pytest.raises(ConfigurationError, match="closed"):
            service.localize_many(_clients(6))

    def test_worker_crash_recovers_under_supervision(self):
        import os as _os

        service = self._process_service()
        baseline = service.localize_many(_clients(6))   # spawn + warm
        executor = service._procpool._ensure()
        # Hard-kill one worker: the pool breaks (reported, not a deadlock)
        # ...
        doomed = executor.submit(_os._exit, 3)
        with pytest.raises(BrokenProcessPool):
            doomed.result(timeout=120)
        # ... and the default supervision rebuilds it on the next batched
        # call, which succeeds bit-identically instead of propagating the
        # breakage.
        _assert_identical(service.localize_many(_clients(6)), baseline)
        assert service._procpool.stats.rebuilds >= 1
        # close() still works on a supervised (rebuilt) pool.
        service.close()
        assert service._procpool is None
