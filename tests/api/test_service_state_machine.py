"""Random operation sequences against a model of the streaming service.

A Hypothesis state machine drives ``ingest``, ``ingest_many``, ``tick``
(with an increasing ``now_s``) and ``flush`` under a drawn session
configuration, pending-frame budget and shed policy, with NaN-power
poison frames mixed in.  A plain-Python model of the pending-frame
accounting (per-session caps, the service-wide budget, both shed
policies, poison rejection, triggers) and of the bounded tracks predicts:

* the ``health()["ingest"]`` counters and every session's pending count;
* which clients each ``tick``/``flush`` emits, and with which frames --
  every fix must equal a fresh service's ``localize_many`` of exactly
  those pending spectra;
* every track's timestamps: sorted, newest-capacity-many, out-of-order
  fixes inserted in time order.
"""

from bisect import insort

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule, run_state_machine_as_test)

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.core import AoASpectrum, default_angle_grid
from repro.errors import BackpressureError, EstimationError, PoisonFrameError
from repro.geometry import Point2D, bearing_deg
from repro.server import tracker as tracker_module

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]
TARGETS = {"c0": Point2D(7.0, 4.0), "c1": Point2D(14.0, 6.0),
           "c2": Point2D(4.0, 7.5)}
GRID = {"server.localizer.grid_resolution_m": 1.0}
#: Small enough that a few fixes age the oldest out of a track.
CAPACITY = 3

ANGLES = default_angle_grid(1.0)


def _frame(ap_index, client_id, timestamp_s, poison):
    # The peak drifts with time, so which frames a fix folds shows in it.
    bearing = bearing_deg(AP_POSITIONS[ap_index], TARGETS[client_id]) \
        + 4.0 * (timestamp_s % 1.0)
    distance = np.abs(ANGLES - bearing)
    distance = np.minimum(distance, 360.0 - distance)
    power = np.exp(-0.5 * (distance / 3.0) ** 2) + 1e-4
    if poison:
        power[17] = np.nan
    return AoASpectrum(ANGLES, power, ap_position=AP_POSITIONS[ap_index],
                       ap_id=f"ap{ap_index}", client_id=client_id,
                       timestamp_s=timestamp_s)


class _Model:
    """The service's pending-frame accounting and tracks, in plain Python."""

    def __init__(self, emit_every, max_age_s, session_cap, budget, policy):
        self.emit_every = emit_every
        self.max_age_s = max_age_s
        self.session_cap = session_cap
        self.budget = budget
        self.policy = policy
        #: client -> {ap id -> [(timestamp, spectrum)]}, in session order.
        self.pending = {}
        self.last_ingest = {}
        self.tracks = {}
        self.counters = {"shed_frames": 0, "backpressure_rejected": 0,
                         "poison_rejected": 0}

    def count(self, client_id):
        return sum(map(len, self.pending[client_id].values()))

    def total(self):
        return sum(map(self.count, self.pending))

    def oldest(self, client_id):
        return min((timestamp for frames in self.pending[client_id].values()
                    for timestamp, _ in frames), default=None)

    def shed_oldest(self, client_id):
        by_ap = self.pending[client_id]
        oldest = None
        for ap_id, frames in by_ap.items():
            for index, (timestamp, _) in enumerate(frames):
                if oldest is None or timestamp < oldest[0]:
                    oldest = (timestamp, ap_id, index)
        _, ap_id, index = oldest
        del by_ap[ap_id][index]
        if not by_ap[ap_id]:
            del by_ap[ap_id]

    def ingest(self, frames):
        """Admit ``(client, ap id, timestamp, spectrum, poison)`` frames in
        order; return the exception type the service must raise, if any."""
        if any(poison for *_, poison in frames):
            self.counters["poison_rejected"] += 1
            return PoisonFrameError
        for client_id, ap_id, timestamp, spectrum, _ in frames:
            self.pending.setdefault(client_id, {})
            if self.budget is not None and self.total() >= self.budget:
                if self.policy == "reject":
                    self.counters["backpressure_rejected"] += 1
                    return BackpressureError
                while self.total() >= self.budget:
                    victim = client_id if self.count(client_id) else min(
                        (other for other in self.pending if self.count(other)),
                        key=self.oldest)
                    self.shed_oldest(victim)
                    self.counters["shed_frames"] += 1
            self.pending[client_id].setdefault(ap_id, []).append(
                (timestamp, spectrum))
            self.last_ingest[client_id] = max(
                timestamp, self.last_ingest.get(client_id, timestamp))
            while self.count(client_id) > self.session_cap:
                self.shed_oldest(client_id)
        return None

    def ready(self, client_id, now_s):
        count = self.count(client_id)
        if not count:
            return False
        if self.emit_every and count >= self.emit_every:
            return True
        now = self.last_ingest[client_id] if now_s is None else now_s
        return self.max_age_s is not None \
            and now - self.oldest(client_id) >= self.max_age_s

    def emit(self, now_s, flush):
        """Drain the emitting clients; return their pending spectra."""
        drained = {}
        for client_id in self.pending:
            if self.count(client_id) if flush else self.ready(client_id, now_s):
                drained[client_id] = {
                    ap_id: [spectrum for _, spectrum in frames]
                    for ap_id, frames in self.pending[client_id].items()}
                track = self.tracks.setdefault(client_id, [])
                insort(track, self.last_ingest[client_id] if flush else now_s)
                del track[:-CAPACITY]
                self.pending[client_id] = {}
        return drained


class ServiceMachine(RuleBasedStateMachine):
    reference = None

    @initialize(emit_every=st.sampled_from([1, 2, 3]),
                max_age_s=st.sampled_from([None, 0.5]),
                session_cap=st.sampled_from([2, 3, 64]),
                budget=st.sampled_from([None, 2, 4]),
                policy=st.sampled_from(["shed-oldest", "reject"]))
    def build(self, emit_every, max_age_s, session_cap, budget, policy):
        self.service = ArrayTrackService(ArrayTrackConfig(
            bounds=BOUNDS).updated({
                **GRID,
                "session.emit_every_frames": emit_every,
                "session.max_age_s": max_age_s,
                "session.max_pending_frames": session_cap,
                "resilience.max_total_pending_frames": budget,
                "resilience.shed_policy": policy}))
        self.model = _Model(emit_every, max_age_s, session_cap, budget, policy)
        self.now_s = 0.0

    def _ingest(self, call, ap_index, frames):
        spectra = [_frame(ap_index, client_id, self.now_s + offset, poison)
                   for client_id, offset, poison in frames]
        expected = self.model.ingest([
            (spectrum.client_id, f"ap{ap_index}", spectrum.timestamp_s,
             spectrum, poison)
            for spectrum, (_, _, poison) in zip(spectra, frames, strict=True)])
        if expected is None:
            call(f"ap{ap_index}", spectra)
        else:
            with pytest.raises(expected):
                call(f"ap{ap_index}", spectra)

    frame = st.tuples(st.sampled_from(sorted(TARGETS)),
                      st.sampled_from([-0.4, -0.1, 0.0, 0.2]),
                      st.integers(0, 5).map(lambda draw: draw == 0))

    @rule(ap_index=st.integers(0, len(AP_POSITIONS) - 1), frame=frame)
    def ingest(self, ap_index, frame):
        self._ingest(lambda ap, spectra: self.service.ingest(ap, spectra[0]),
                     ap_index, [frame])

    @rule(ap_index=st.integers(0, len(AP_POSITIONS) - 1),
          frames=st.lists(frame, min_size=1, max_size=4))
    def ingest_many(self, ap_index, frames):
        self._ingest(self.service.ingest_many, ap_index, frames)

    def _check_fixes(self, fixes, drained):
        assert set(fixes) == set(drained)
        if drained:
            assert fixes == type(self).reference.localize_many(drained)

    @rule(step_s=st.sampled_from([0.1, 0.3, 0.6]))
    def tick(self, step_s):
        self.now_s += step_s
        fixes = self.service.tick(now_s=self.now_s)
        self._check_fixes(fixes, self.model.emit(self.now_s, flush=False))

    @rule(now_s=st.sampled_from([float("nan"), float("inf")]))
    def tick_non_finite(self, now_s):
        with pytest.raises(EstimationError, match="non-finite"):
            self.service.tick(now_s=now_s)

    @rule()
    def flush(self):
        fixes = self.service.flush()
        self._check_fixes(fixes, self.model.emit(None, flush=True))

    @invariant()
    def pending_accounting_matches_the_model(self):
        health = self.service.health()
        model = self.model
        assert health["ingest"] == {
            "pending_frames": model.total(),
            "pending_budget": model.budget, **model.counters}
        assert health["sessions"] == len(model.pending)
        assert {client_id: session.pending_frames for client_id, session
                in self.service.sessions.items()} == \
            {client_id: model.count(client_id) for client_id in model.pending}
        assert {client_id: session.pending_times() for client_id, session
                in self.service.sessions.items()} == \
            {client_id: {ap_id: [timestamp for timestamp, _ in frames]
                         for ap_id, frames in by_ap.items()}
             for client_id, by_ap in model.pending.items()}

    @invariant()
    def tracks_are_sorted_and_bounded(self):
        for client_id in TARGETS:
            times = [point.timestamp_s
                     for point in self.service.track(client_id)]
            assert times == sorted(times)
            assert len(times) <= CAPACITY
            assert times == self.model.tracks.get(client_id, [])


def test_service_matches_its_model(monkeypatch):
    monkeypatch.setattr(tracker_module, "TRACK_CAPACITY", CAPACITY)
    monkeypatch.setattr(ServiceMachine, "reference", ArrayTrackService(
        ArrayTrackConfig(bounds=BOUNDS).updated(GRID)))
    run_state_machine_as_test(ServiceMachine, settings=settings(
        max_examples=40, stateful_step_count=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
