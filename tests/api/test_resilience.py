"""Tests for the resilience layer: recovery, breaker, admission control.

The contract under test: a batch whose pool round fails -- an injected
worker crash mid-batch, a blown shard deadline, a failed shm allocation --
is served by the serial rung in the same call with bit-identical results
and zero leaked shm segments, the next sharded call respawns the pool, the
circuit breaker degrades process -> serial and recovers half-open, and
ingest sheds/rejects under pressure -- all deterministically, via
:mod:`repro.testing.faults`.
"""

import glob
import os
import threading
import time
import uuid
from dataclasses import replace

import numpy as np
import pytest

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.api import _procpool
from repro.api._procpool import (SEGMENT_PREFIX, ProcessShardPool,
                                 _ArrayPacker, _release_segment,
                                 live_segments, shm_leak_events)
from repro.api._resilience import CircuitBreaker, backend_ladder
from repro.ap.buffer import BufferEntry
from repro.array.receiver import SnapshotMatrix
from repro.channel import MultipathChannel
from repro.core import AoASpectrum, default_angle_grid
from repro.errors import (BackpressureError, ConfigurationError,
                          EstimationError, PoisonFrameError)
from repro.geometry import Point2D, bearing_deg
from repro.testing import faults

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]


def _own_segment_paths():
    """This process's segments in ``/dev/shm``, by the name pattern
    ``_new_segment_name`` builds; other processes' segments are theirs."""
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid():x}_*")


def _assert_no_segments():
    assert live_segments() == frozenset()
    assert _own_segment_paths() == []


@pytest.fixture(autouse=True)
def clean_faults_and_segments():
    """Every test starts fault-free and must leak no shm segments."""
    faults.deactivate()
    yield
    faults.deactivate()
    _assert_no_segments()


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


def _pending(service):
    """Frames pending across the service's sessions, as health() reports."""
    return service.health()["ingest"]["pending_frames"]


def _process_service(**overrides):
    return _service(parallel={"backend": "process", "num_workers": 2,
                              "min_clients_per_worker": 2}, **overrides)


def _assert_identical(recovered, serial):
    assert list(recovered) == list(serial)
    for key in serial:
        assert recovered[key].position.x == serial[key].position.x
        assert recovered[key].position.y == serial[key].position.y
        assert recovered[key].likelihood == serial[key].likelihood


@pytest.fixture(scope="module")
def serial_fixes():
    """The serial ground truth every recovered batch must equal exactly."""
    with _service() as service:
        return service.localize_many(_clients(6))


# ----------------------------------------------------------------------
# A failed pool round: serial serves the batch, the next call respawns
# ----------------------------------------------------------------------
class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("stage", list(faults.STAGES))
    def test_crash_at_stage_recovers_bit_identically(self, stage, tmp_path,
                                                     serial_fixes):
        faults.activate(faults.FaultSpec(
            kind="kill-worker-mid-shard", stage=stage, times=1,
            token_dir=str(tmp_path)))
        with _process_service() as service:
            recovered = service.localize_many(_clients(6))
            _assert_identical(recovered, serial_fixes)
            stats = service._procpool.stats
            assert stats.broken_pools == 1
            assert stats.rebuilds == 1
            health = service.health()
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            assert "PoolSupervisionError" in health["fallbacks"]["last_error"]
            assert health["breaker"]["state"] == "closed"
            assert health["backend"]["active"] == "process"
            # Exactly one worker died, and it died by injection.
            assert len(list(tmp_path.iterdir())) == 1
        _assert_no_segments()

    def test_crashed_batch_is_served_serially_then_the_pool_respawns(
            self, tmp_path, serial_fixes):
        faults.activate(faults.FaultSpec(
            kind="kill-worker-mid-shard", times=1, token_dir=str(tmp_path)))
        with _process_service() as service:
            # The crashed round is not retried: the serial rung serves the
            # batch in the same call, and the broken pool is discarded.
            _assert_identical(service.localize_many(_clients(6)),
                              serial_fixes)
            health = service.health()
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            assert health["breaker"]["failures"] == 1
            assert health["breaker"]["state"] == "closed"
            assert health["pool"]["started"] is False
            assert health["pool"]["rebuilds"] == 1
            # The next batch respawns the pool and the process rung serves
            # it: no new fallback, and the breaker's count is reset.
            _assert_identical(service.localize_many(_clients(6)),
                              serial_fixes)
            health = service.health()
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            assert health["breaker"]["failures"] == 0
            assert health["pool"]["started"] is True
            assert health["pool"]["rebuilds"] == 1
            assert health["pool"]["broken_pools"] == 1
            assert len(list(tmp_path.iterdir())) == 1

    def test_shard_timeout_recovers_bit_identically(self, tmp_path,
                                                    serial_fixes):
        faults.activate(faults.FaultSpec(
            kind="slow-worker", stage="after-attach", times=1, delay_s=30.0,
            token_dir=str(tmp_path)))
        with _process_service(
                **{"resilience.shard_timeout_s": 5.0}) as service:
            start = time.monotonic()
            recovered = service.localize_many(_clients(6))
            # The wedged shard was deadlined and the batch served serially,
            # far faster than the injected 30 s sleep.
            assert time.monotonic() - start < 25.0
            _assert_identical(recovered, serial_fixes)
            assert service._procpool.stats.shard_timeouts == 1
            assert service._procpool.stats.rebuilds == 1
            health = service.health()
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            assert "shard_timeout_s" in health["fallbacks"]["last_error"]


# ----------------------------------------------------------------------
# The degradation ladder: process -> serial and back (half-open)
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_broken_pool_degrades_to_serial_then_probe_back(
            self, serial_fixes):
        # Kill every worker task and trip the breaker on the first
        # failure; recovery window held open wide.
        faults.activate(faults.FaultSpec(kind="kill-worker-mid-shard"))
        service = _process_service(
            **{"resilience.breaker_threshold": 1,
               "resilience.breaker_recovery_s": 1000.0})
        with service:
            # The batch is served anyway -- by the serial rung -- and is
            # still bit-identical.
            _assert_identical(service.localize_many(_clients(6)),
                              serial_fixes)
            health = service.health()
            assert health["backend"]["active"] == "serial"
            assert health["breaker"]["state"] == "open"
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            assert "PoolSupervisionError" in health["fallbacks"]["last_error"]
            assert service._procpool.stats.rebuilds == 1
            # While the breaker is open, batches enter at serial directly:
            # no doomed process attempt, no further pool failures.
            _assert_identical(service.localize_many(_clients(6)),
                              serial_fixes)
            assert service._procpool.stats.rebuilds == 1
            assert service.health()["pool"]["started"] is False
            # Entering at serial is not a fallback (nothing fell mid-call),
            # and a batch the serial rung serves does not close the breaker.
            health = service.health()
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            assert health["breaker"]["state"] == "open"
            # Heal the pool, force the recovery window open: the next
            # batch half-open-probes the process rung and re-closes.
            faults.deactivate()
            service._breaker._clock = lambda: time.monotonic() + 2000.0
            assert service.health()["breaker"]["state"] == "half-open"
            _assert_identical(service.localize_many(_clients(6)),
                              serial_fixes)
            health = service.health()
            assert health["breaker"]["state"] == "closed"
            assert health["backend"]["active"] == "process"

    def test_shm_allocation_failure_degrades_to_serial(self, serial_fixes):
        faults.activate(faults.FaultSpec(kind="shm-allocation-failure",
                                         times=1))
        with _process_service() as service:
            _assert_identical(service.localize_many(_clients(6)),
                              serial_fixes)
            health = service.health()
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            # One failure is below the default threshold: still closed.
            assert health["breaker"]["state"] == "closed"
            assert health["breaker"]["failures"] == 1
            # Budget spent: the process rung serves the next batch itself.
            _assert_identical(service.localize_many(_clients(6)),
                              serial_fixes)
            health = service.health()
            assert health["fallbacks"]["served_by"] == {"serial": 1}
            assert health["breaker"]["failures"] == 0


class TestCircuitBreakerUnit:
    def _breaker(self, threshold=2, recovery_s=10.0):
        state = {"now": 0.0}
        breaker = CircuitBreaker(backend_ladder("process"),
                                 threshold=threshold, recovery_s=recovery_s,
                                 clock=lambda: state["now"])
        return breaker, state

    def test_ladders(self):
        assert backend_ladder("process") == ("process", "serial")
        assert backend_ladder("none") == ("serial",)

    def test_opens_after_threshold_and_probes_after_recovery(self):
        breaker, clock = self._breaker()
        assert breaker.state == "closed" and breaker.entry_index() == 0
        breaker.record_failure()
        assert breaker.entry_index() == 0    # below threshold
        breaker.record_failure()
        assert breaker.state == "open" and breaker.entry_index() == 1
        assert breaker.level == 1
        clock["now"] = 9.9
        assert breaker.entry_index() == 1    # window still open
        clock["now"] = 10.0
        assert breaker.state == "half-open"
        assert breaker.entry_index() == 0    # the probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.entry_index() == 0
        assert breaker.level == 0

    def test_failed_probe_reopens_the_window(self):
        breaker, clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.entry_index() == 0
        breaker.record_failure()             # the probe failed
        assert breaker.state == "open" and breaker.entry_index() == 1
        clock["now"] = 19.9
        assert breaker.entry_index() == 1    # a fresh full window
        clock["now"] = 20.0
        assert breaker.entry_index() == 0

    def test_success_resets_the_failure_count(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.entry_index() == 0

    def test_serial_only_ladder_never_opens(self):
        breaker = CircuitBreaker(backend_ladder("none"), threshold=1,
                                 recovery_s=10.0, clock=lambda: 0.0)
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.entry_index() == 0

    def test_snapshot_is_json_safe(self):
        import json
        breaker, _ = self._breaker()
        breaker.record_failure()
        snapshot = json.loads(json.dumps(breaker.snapshot()))
        assert snapshot == {"state": "closed", "ladder": ["process", "serial"],
                            "level": 0, "entry_backend": "process",
                            "failures": 1, "threshold": 2,
                            "recovery_s": 10.0}


# ----------------------------------------------------------------------
# Backpressure and shedding (service-wide pending budget)
# ----------------------------------------------------------------------
class TestBackpressure:
    def _spectrum(self, client_id, timestamp_s):
        return _spectrum_towards(AP_POSITIONS[0], Point2D(10.0, 5.0),
                                 timestamp_s=timestamp_s,
                                 client_id=client_id)

    def test_shed_oldest_prefers_the_ingesting_client(self):
        service = _service(
            **{"resilience.max_total_pending_frames": 3,
               "session.max_pending_frames": 100})
        for index in range(3):
            service.ingest("ap0", self._spectrum("a", float(index)))
        assert _pending(service) == 3
        service.ingest("ap0", self._spectrum("a", 3.0))
        # Client a's own oldest frame (t=0) was shed to make room.
        assert _pending(service) == 3
        assert service.session("a").pending_times()["ap0"] == [1.0, 2.0, 3.0]
        assert service.health()["ingest"]["shed_frames"] == 1

    def test_shed_oldest_falls_back_to_globally_oldest_session(self):
        service = _service(
            **{"resilience.max_total_pending_frames": 2,
               "session.max_pending_frames": 100})
        service.ingest("ap0", self._spectrum("a", 0.0))
        service.ingest("ap0", self._spectrum("b", 1.0))
        service.ingest("ap0", self._spectrum("newcomer", 2.0))
        # The newcomer had nothing to shed, so the globally oldest pending
        # frame (client a's) went instead.
        assert service.session("a").pending_frames == 0
        assert service.session("b").pending_frames == 1
        assert service.session("newcomer").pending_frames == 1
        assert _pending(service) == 2

    def test_reject_policy_raises_named_error_and_counts(self):
        service = _service(
            **{"resilience.max_total_pending_frames": 1,
               "resilience.shed_policy": "reject"})
        service.ingest("ap0", self._spectrum("a", 0.0))
        with pytest.raises(BackpressureError, match="budget is full"):
            service.ingest("ap0", self._spectrum("b", 1.0))
        # The rejected frame left no trace; the first client is intact.
        assert _pending(service) == 1
        assert service.health()["ingest"]["backpressure_rejected"] == 1

    def test_pending_total_tracks_session_drains(self):
        service = _service(**{"session.emit_every_frames": 100})
        for index in range(4):
            service.ingest("ap0", self._spectrum("a", float(index)))
        assert _pending(service) == 4
        service.flush()
        assert _pending(service) == 0

    def test_per_session_cap_keeps_service_accounting_exact(self):
        service = _service(**{"session.max_pending_frames": 2})
        for index in range(5):
            service.ingest("ap0", self._spectrum("a", float(index)))
        assert service.session("a").pending_frames == 2
        assert _pending(service) == 2


# ----------------------------------------------------------------------
# Poison-frame rejection at the door
# ----------------------------------------------------------------------
class TestPoisonFrames:
    def _nan_spectrum(self, client_id="c0"):
        angles = default_angle_grid(1.0)
        power = np.ones_like(angles)
        power[3] = np.nan
        return AoASpectrum(angles, power, ap_position=AP_POSITIONS[0],
                           client_id=client_id, ap_id="ap0")

    def test_nan_power_rejected_with_named_error(self):
        service = _service()
        with pytest.raises(PoisonFrameError, match="'c0'.*'ap0'.*non-finite"):
            service.ingest("ap0", self._nan_spectrum())
        assert _pending(service) == 0
        assert service.health()["ingest"]["poison_rejected"] == 1

    def test_grid_mismatch_against_pending_frames_rejected(self):
        service = _service()
        good = _spectrum_towards(AP_POSITIONS[0], Point2D(10.0, 5.0),
                                 client_id="c0")
        service.ingest("ap0", good)
        angles = default_angle_grid(2.0)     # a different grid shape
        mismatched = AoASpectrum(angles, np.ones_like(angles),
                                 ap_position=AP_POSITIONS[0],
                                 client_id="c0", ap_id="ap0")
        with pytest.raises(PoisonFrameError, match="contradicts"):
            service.ingest("ap0", mismatched)
        assert service.session("c0").pending_frames == 1

    def test_ingest_many_rejects_atomically(self):
        service = _service()
        good = _spectrum_towards(AP_POSITIONS[0], Point2D(10.0, 5.0),
                                 client_id="c0")
        with pytest.raises(PoisonFrameError):
            service.ingest_many("ap0", [good, self._nan_spectrum("c1")])
        # Nothing was admitted: no session holds half the burst.
        assert _pending(service) == 0
        assert all(s.pending_frames == 0
                   for s in service.sessions.values())

    def test_raw_entry_with_nan_snapshots_rejected_before_the_frontend(self):
        service = _service()
        ap = service.build_ap("ap0", AP_POSITIONS[0])
        samples = np.full((8, 10), np.nan + 0.0j)
        entry = BufferEntry(
            snapshots=SnapshotMatrix(samples, client_id="c0"),
            client_id="c0", timestamp_s=0.0, sequence=0)
        with pytest.raises(PoisonFrameError, match="snapshot samples"):
            service.ingest(ap, entry)
        with pytest.raises(PoisonFrameError, match="snapshot samples"):
            service.ingest_many(ap, [entry])
        assert service.health()["ingest"]["poison_rejected"] == 2

    @pytest.mark.parametrize("order", ["power-first", "timestamp-first"])
    def test_first_poison_frame_in_input_order_is_named(self, order):
        service = _service()
        good = _spectrum_towards(AP_POSITIONS[0], Point2D(10.0, 5.0),
                                 client_id="c0")
        nan_power = self._nan_spectrum("c1")
        inf_time = _spectrum_towards(AP_POSITIONS[0], Point2D(10.0, 5.0),
                                     timestamp_s=float("inf"),
                                     client_id="c2")
        poison = [nan_power, inf_time]
        expected = "'c1'.*non-finite power values"
        if order == "timestamp-first":
            poison.reverse()
            expected = "'c2'.*non-finite timestamp"
        with pytest.raises(PoisonFrameError, match=expected):
            service.ingest_many("ap0", [good, *poison, good])
        # One rejected call counts once, and no session holds a frame.
        assert service.health()["ingest"]["poison_rejected"] == 1
        assert _pending(service) == 0
        assert all(s.pending_frames == 0
                   for s in service.sessions.values())

    def test_raw_batch_with_one_nan_entry_is_rejected_before_the_frontend(
            self, monkeypatch):
        service = _service()
        ap = service.build_ap("ap0", AP_POSITIONS[0])

        def entry(client_id, samples):
            return BufferEntry(
                snapshots=SnapshotMatrix(samples, client_id=client_id),
                client_id=client_id, timestamp_s=0.0, sequence=0)

        clean = np.ones((8, 10), dtype=complex)
        dirty = clean.copy()
        dirty[4, 7] = np.nan
        batch = [entry("c0", clean), entry("c1", dirty), entry("c2", clean)]

        def frontend(entries):
            raise AssertionError("the frontend ran on a poisoned batch")

        monkeypatch.setattr(ap, "compute_spectra", frontend)
        with pytest.raises(PoisonFrameError, match="'c1'.*snapshot samples"):
            service.ingest_many(ap, batch)
        assert service.health()["ingest"]["poison_rejected"] == 1
        assert _pending(service) == 0

    @pytest.mark.parametrize("own, override", [
        (float("nan"), None),
        (float("inf"), None),
        (1.0, float("nan")),
        (float("nan"), 1.0),
    ], ids=["own-nan", "own-inf", "override-nan", "own-nan-override-finite"])
    def test_non_finite_timestamp_rejected_atomically(self, own, override):
        # A session that already emitted its t=0 fix used to admit NaN-timed
        # frames, and the next tick() committed a second fix at t=0.0.
        service = _service(**{"session.emit_every_frames": 3})
        target = Point2D(10.0, 5.0)
        for position in AP_POSITIONS:
            service.ingest("ap0", _spectrum_towards(position, target,
                                                    client_id="c0"))
        assert set(service.tick()) == {"c0"}
        good = _spectrum_towards(AP_POSITIONS[1], target, timestamp_s=1.0,
                                 client_id="c0")
        burst = [good] + [
            _spectrum_towards(position, target, timestamp_s=own,
                              client_id="c0")
            for position in AP_POSITIONS]
        with pytest.raises(PoisonFrameError, match="non-finite timestamp"):
            service.ingest_many("ap0", burst, timestamp_s=override)
        assert _pending(service) == 0
        assert service.health()["ingest"]["poison_rejected"] == 1
        assert service.tick() == {}
        assert [point.timestamp_s for point in service.track("c0")] == [0.0]

    def test_injected_poison_fault_is_caught_by_the_gate(self):
        # The fault plan arrives via the config knob, proving the
        # config-activation path end to end.
        plan = '[{"kind": "poison-frame", "times": 1}]'
        service = _service(**{"resilience.fault_plan": plan})
        good = _spectrum_towards(AP_POSITIONS[0], Point2D(10.0, 5.0),
                                 client_id="c0")
        with pytest.raises(PoisonFrameError, match="non-finite"):
            service.ingest("ap0", good)
        service.ingest("ap0", good)          # budget spent: admitted
        assert _pending(service) == 1


# ----------------------------------------------------------------------
# Satellite 1: the close()/_ensure() lifecycle race
# ----------------------------------------------------------------------
class TestDegenerateRawFrames:
    """Finite frames the poison gate admits but an estimator cannot use."""

    def _zero_entry(self):
        return BufferEntry(
            snapshots=SnapshotMatrix(np.zeros((9, 10), dtype=complex),
                                     client_id="c0"),
            client_id="c0", timestamp_s=0.0, sequence=0)

    def test_all_zero_entry_under_capon_raises_estimation_error(self):
        service = _service(**{"ap.spectrum.method": "capon"})
        ap = service.build_ap("ap0", AP_POSITIONS[0])
        with pytest.raises(EstimationError, match=r"frames \[0\].*zero trace"):
            service.ingest_many(ap, [self._zero_entry()])
        with pytest.raises(EstimationError, match="zero trace"):
            service.ingest(ap, self._zero_entry())
        assert _pending(service) == 0

    @pytest.mark.parametrize("estimator", ["music", "bartlett"])
    def test_all_zero_entry_is_refused_by_other_estimators(self, estimator):
        # Bartlett's spectrum of it is all zero (every later tick raised
        # "cannot normalize an all-zero spectrum") and MUSIC's eigenvectors
        # are arbitrary (a fix anywhere), so it is refused like Capon's.
        service = _service(**{"ap.spectrum.method": estimator})
        ap = service.build_ap("ap0", AP_POSITIONS[0])
        with pytest.raises(EstimationError, match=r"frames \[0\].*zero trace"):
            service.ingest_many(ap, [self._zero_entry()])
        assert _pending(service) == 0

    @staticmethod
    def _fix(method, scale):
        """Tick one capture per AP scaled by ``scale``: the fix, or None
        when every AP refused its frame at ingest."""
        service = _service(**{"ap.spectrum.method": method,
                              "session.emit_every_frames": 3})
        refused = 0
        for index, position in enumerate(AP_POSITIONS):
            ap = service.build_ap(f"ap{index}", position,
                                  rng=np.random.default_rng(index))
            try:
                service.ingest_many(ap, [_scaled_entry(ap, index, scale)])
            except EstimationError:
                refused += 1
        fixes = service.tick()
        # A capture's scale is the same at every AP, so all go or none.
        assert refused in (0, len(AP_POSITIONS))
        if refused:
            assert fixes == {}
            return None
        [fix] = fixes.values()
        return fix.position

    @pytest.mark.parametrize("method", ["music", "bartlett", "capon"])
    @pytest.mark.parametrize("scale", [0.0, 1e-164, 1e-162, 1e-161, 1e-160,
                                       1e-150, 1e7, 1e9])
    def test_scaled_capture_is_refused_or_fixed_like_the_unscaled_one(
            self, method, scale):
        # Samples from about 1e-162 down have squares that underflow to a
        # zero energy; Capon's floor used to be absolute, so its fix
        # drifted from 1e7 up.
        unscaled = self._fix(method, 1.0)
        assert unscaled.distance_to(Point2D(7.0, 4.0)) < 0.25
        fix = self._fix(method, scale)
        if scale <= 1e-162 or (method == "capon" and scale < 1e-100):
            assert fix is None
        else:
            assert abs(fix.x - unscaled.x) <= 0.25
            assert abs(fix.y - unscaled.y) <= 0.25


def _scaled_entry(ap, index, scale):
    """One capture of a client at (7, 4) at ``ap``, samples times ``scale``."""
    channel = MultipathChannel.from_bearings(
        [bearing_deg(ap.position, Point2D(7.0, 4.0))], [1.0], client_id="c0")
    entry = ap.overhear(channel, rng=np.random.default_rng(10 + index))
    return replace(entry, snapshots=replace(
        entry.snapshots, samples=entry.snapshots.samples * scale))


class TestOverflowingRawFrames:
    """Finite samples whose energy overflows are refused alike by every
    estimator; every raw frame admitted yields a finite fix."""

    @pytest.mark.parametrize("method", ["music", "bartlett", "capon"])
    @pytest.mark.parametrize("scale", [1e0, 1e50, 1e100, 1e150, 1e153,
                                       1e154, 1e155, 1e200, 1e300])
    def test_refused_at_ingest_or_a_finite_fix_at_tick(self, method, scale):
        service = _service(**{"ap.spectrum.method": method,
                              "session.emit_every_frames": 3})
        refused = 0
        for index, position in enumerate(AP_POSITIONS):
            ap = service.build_ap(f"ap{index}", position,
                                  rng=np.random.default_rng(index))
            try:
                service.ingest_many(ap, [_scaled_entry(ap, index, scale)])
            except PoisonFrameError as exc:
                assert "sample energy overflows" in str(exc)
                refused += 1
        assert service.health()["ingest"]["poison_rejected"] == refused
        assert _pending(service) == len(AP_POSITIONS) - refused
        fixes = service.tick()
        if refused == 0:
            [fix] = fixes.values()
            assert np.isfinite([fix.position.x, fix.position.y,
                                fix.likelihood]).all()
        else:
            # A capture's scale is the same at every AP, so all go or none.
            assert refused == len(AP_POSITIONS)
            assert fixes == {}

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200])
    def test_capon_refuses_captures_too_weak_to_load(self, scale):
        """Such a frame's Capon solve overflows: refused at ingest, so it
        never reaches a tick."""
        service = _service(**{"ap.spectrum.method": "capon"})
        ap = service.build_ap("ap0", AP_POSITIONS[0])
        with pytest.raises(EstimationError, match="Capon needs"):
            service.ingest_many(ap, [_scaled_entry(ap, 0, scale)])
        assert _pending(service) == 0

    def test_poison_fault_on_a_raw_entry_is_caught_by_the_sample_screen(self):
        service = _service(**{"resilience.fault_plan":
                              '[{"kind": "poison-frame", "times": 1}]'})
        ap = service.build_ap("ap0", AP_POSITIONS[0])
        entry = _scaled_entry(ap, 0, 1.0)
        with pytest.raises(PoisonFrameError,
                           match="'c0'.*non-finite snapshot samples"):
            service.ingest_many(ap, [entry])
        assert not np.isnan(entry.snapshots.samples).any()
        service.ingest_many(ap, [entry])     # budget spent: admitted
        assert _pending(service) == 1
        assert service.health()["ingest"]["poison_rejected"] == 1

    def test_misshapen_entry_is_refused_at_ingest(self):
        service = _service()
        ap = service.build_ap("ap0", AP_POSITIONS[0])
        good = _scaled_entry(ap, 0, 1.0)
        short = replace(good, snapshots=replace(
            good.snapshots, samples=good.snapshots.samples[:8]))
        with pytest.raises(EstimationError, match=r"\(8, 10\).*9 rows"):
            service.ingest_many(ap, [good, short])
        assert _pending(service) == 0


class _StubExecutor:
    """Stands in for ProcessPoolExecutor: records lifecycle transitions."""

    instances = []

    def __init__(self, *args, **kwargs):
        self.shutdowns = 0
        _StubExecutor.instances.append(self)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns += 1


class TestPoolLifecycleRace:
    def _pool(self, monkeypatch):
        monkeypatch.setattr(_procpool, "ProcessPoolExecutor", _StubExecutor)
        _StubExecutor.instances = []
        config = ArrayTrackConfig(bounds=BOUNDS)
        return ProcessShardPool(config)

    def test_closed_pool_refuses_to_rebuild(self, monkeypatch):
        pool = self._pool(monkeypatch)
        pool._ensure()
        assert pool.started
        pool.close()
        assert not pool.started and pool.closed
        with pytest.raises(ConfigurationError, match="closed"):
            pool._ensure()
        pool.close()                         # idempotent
        assert [e.shutdowns for e in _StubExecutor.instances] == [1]

    def test_concurrent_close_and_ensure_never_leak_an_executor(
            self, monkeypatch):
        pool = self._pool(monkeypatch)
        pool._ensure()                       # at least one executor exists
        barrier = threading.Barrier(8)
        errors = []

        def ensure_loop():
            barrier.wait()
            for _ in range(200):
                try:
                    pool._ensure()
                except ConfigurationError:
                    return               # pool closed under us: expected
                except BaseException as exc:  # noqa: BLE001 - fail the test
                    errors.append(exc)
                    return

        def close_loop():
            barrier.wait()
            for _ in range(50):
                pool.close()

        threads = [threading.Thread(target=ensure_loop) for _ in range(6)] \
            + [threading.Thread(target=close_loop) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pool.close()                         # settle any last _ensure win
        assert not pool.started and pool.closed
        assert not errors
        # Every executor ever created was shut down -- none resurrected
        # after close, none double-shutdown beyond idempotent calls, none
        # leaked without a shutdown.
        assert _StubExecutor.instances
        assert all(e.shutdowns >= 1 for e in _StubExecutor.instances)


# ----------------------------------------------------------------------
# Satellite 2: shm leak accounting
# ----------------------------------------------------------------------
class TestShmLeakAccounting:
    def test_buffer_error_on_close_is_counted_and_still_unlinked(self):
        from multiprocessing import shared_memory

        before = shm_leak_events()
        segment = shared_memory.SharedMemory(
            create=True, size=64, name=_procpool._new_segment_name())
        try:
            _procpool._LIVE_SEGMENTS.add(segment.name)
            held = segment.buf[0:8]          # an escaped exported buffer
        finally:
            _procpool._release_segment(segment)
        # The escaped buffer made close() fail: counted, not swallowed ...
        assert shm_leak_events() == before + 1
        # ... but the segment name is gone system-wide regardless.
        assert segment.name not in live_segments()
        assert glob.glob(f"/dev/shm/{segment.name}") == []
        held.release()
        segment.close()

    def test_already_unlinked_segment_is_tolerated_and_not_a_leak(self):
        from multiprocessing import shared_memory

        before = shm_leak_events()
        segment = shared_memory.SharedMemory(
            create=True, size=64, name=_procpool._new_segment_name())
        try:
            _procpool._LIVE_SEGMENTS.add(segment.name)
            segment.unlink()                 # someone else already unlinked
        finally:
            _procpool._release_segment(segment)
        assert shm_leak_events() == before
        assert segment.name not in live_segments()

    def test_packed_segment_matches_the_own_segment_pattern(self):
        # The teardown checks glob this process's name pattern only; a
        # packed segment must match it, or those checks would be vacuous.
        packer = _ArrayPacker()
        packer.add(np.arange(4.0))
        segment, handle = packer.pack()
        try:
            assert f"/dev/shm/{handle.name}" in _own_segment_paths()
        finally:
            _release_segment(segment)
        assert _own_segment_paths() == []

    def test_foreign_process_segment_does_not_fail_the_check(self):
        from multiprocessing import shared_memory

        # Another process of this program (a benchmark run alongside,
        # say) holds a segment under its own pid.
        foreign = shared_memory.SharedMemory(
            create=True, size=8,
            name=f"{SEGMENT_PREFIX}{os.getpid() + 1:x}_{uuid.uuid4().hex[:12]}")
        try:
            assert glob.glob(f"/dev/shm/{foreign.name}") != []
            _assert_no_segments()
        finally:
            foreign.close()
            foreign.unlink()

    def test_leak_counter_reaches_health(self):
        with _service() as service:
            assert service.health()["pool"]["shm_leak_events"] \
                == shm_leak_events()


# ----------------------------------------------------------------------
# The health snapshot
# ----------------------------------------------------------------------
class TestHealth:
    def test_schema_and_json_safety(self):
        import json

        with _process_service() as service:
            health = json.loads(json.dumps(service.health()))
        assert set(health) == {"closed", "backend", "breaker", "pool",
                               "ingest", "fallbacks", "sessions"}
        assert health["backend"] == {"configured": "process",
                                     "active": "process"}
        assert set(health["pool"]) == {
            "started", "rebuilds", "broken_pools", "shard_timeouts",
            "shard_retries", "backoff_slept_s", "shm_leak_events",
            "live_segments"}
        # No in-pool retry tier: these two stay zero.
        assert health["pool"]["shard_retries"] == 0
        assert health["pool"]["backoff_slept_s"] == 0.0
        assert set(health["ingest"]) == {
            "pending_frames", "pending_budget", "shed_frames",
            "backpressure_rejected", "poison_rejected"}
        assert health["pool"]["started"] is False
        assert health["sessions"] == 0

    def test_health_still_works_on_a_closed_service(self):
        service = _service()
        service.close()
        assert service.health()["closed"] is True
