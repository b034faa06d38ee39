"""Tests for the ArrayTrackService facade: batch API and streaming sessions."""

import gc
import weakref

import numpy as np
import pytest

from repro.ap import APConfig, ArrayTrackAP
from repro.api import ArrayTrackConfig, ArrayTrackService, Session
from repro.channel import MultipathChannel
from repro.core import (AoASpectrum, LocalizerConfig, SpectrumConfig,
                        default_angle_grid)
from repro.errors import ConfigurationError, EstimationError
from repro.geometry import Point2D, bearing_deg
from repro.server import ServerConfig
from repro.server import tracker as tracker_module

BOUNDS = (0.0, 0.0, 20.0, 10.0)
TARGET = Point2D(12.0, 6.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]


def _spectrum_towards(ap_position, target, width=3.0, timestamp_s=0.0,
                      extra_peak=None, client_id=""):
    angles = default_angle_grid(1.0)
    bearing = bearing_deg(ap_position, target)
    distance = np.minimum(np.abs(angles - bearing), 360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / width) ** 2) + 1e-4
    if extra_peak is not None:
        extra_distance = np.minimum(np.abs(angles - extra_peak),
                                    360 - np.abs(angles - extra_peak))
        power += 0.9 * np.exp(-0.5 * (extra_distance / width) ** 2)
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_id=f"ap@{ap_position.x:.0f},{ap_position.y:.0f}",
                       client_id=client_id, timestamp_s=timestamp_s)


def _service(**overrides):
    config = ArrayTrackConfig(bounds=BOUNDS).updated(
        {"server.localizer.grid_resolution_m": 0.2, **overrides})
    return ArrayTrackService(config)


def _spectra_for(target, timestamp_s=0.0):
    return {f"ap{i}": [_spectrum_towards(p, target, timestamp_s=timestamp_s)]
            for i, p in enumerate(AP_POSITIONS)}


class TestBatchFacade:
    def test_localize_finds_target(self):
        service = _service()
        estimate = service.localize(_spectra_for(TARGET), "c")
        assert estimate.position.distance_to(TARGET) < 0.3
        assert estimate.client_id == "c"

    def test_localize_many_matches_single(self):
        service = _service()
        rng = np.random.default_rng(3)
        clients = {f"c{i}": _spectra_for(Point2D(rng.uniform(2, 18),
                                                 rng.uniform(2, 8)))
                   for i in range(4)}
        batched = service.localize_many(clients)
        for client_id, spectra in clients.items():
            single = service.localize(spectra, client_id)
            assert batched[client_id].position == single.position
            assert batched[client_id].likelihood == single.likelihood

    def test_service_requires_bounds(self):
        with pytest.raises(ConfigurationError, match="bounds"):
            ArrayTrackService(ArrayTrackConfig())

    def test_bounds_argument_overrides_config(self):
        service = ArrayTrackService(ArrayTrackConfig(), bounds=BOUNDS)
        assert service.bounds == BOUNDS

    def test_from_json_constructor(self):
        config = ArrayTrackConfig(bounds=BOUNDS)
        service = ArrayTrackService.from_json(config.to_json())
        assert service.config == config

    def test_localize_buffered_uses_built_fleet(self):
        service = _service()
        rng = np.random.default_rng(5)
        for index, position in enumerate(AP_POSITIONS):
            ap = service.build_ap(f"ap{index}", position,
                                  rng=np.random.default_rng(index))
            channel = MultipathChannel.from_bearings(
                [float(rng.uniform(30, 150))], [1.0], direct_index=0,
                client_id="buffered", ap_id=ap.ap_id)
            ap.overhear(channel, timestamp_s=0.0)
        fixes = service.localize_buffered(["buffered"])
        assert set(fixes) == {"buffered"}
        assert fixes["buffered"].num_aps == 3


class TestFacadeEquivalence:
    def test_explicit_server_config_matches_facade_defaults(self):
        spectra = _spectra_for(TARGET)
        facade = _service().localize(spectra, "c")
        explicit = ArrayTrackService(ArrayTrackConfig(
            bounds=BOUNDS, server=ServerConfig(localizer=LocalizerConfig(
                grid_resolution_m=0.2, spectrum_floor=0.05))))
        estimate = explicit.localize(spectra, "c")
        assert estimate.position == facade.position
        assert estimate.likelihood == facade.likelihood
        assert estimate.num_aps == facade.num_aps

    def test_quickstart_flow_single_fix_matches_batch(self):
        from repro.testbed import (ScenarioConfig, SimulatedDeployment,
                                   build_office_testbed)

        testbed = build_office_testbed()
        deployment = SimulatedDeployment(testbed, ScenarioConfig(seed=7))
        service = ArrayTrackService(
            ArrayTrackConfig(bounds=testbed.bounds).updated(
                {"server.localizer.grid_resolution_m": 0.5}))
        spectra = deployment.collect_client_spectra(
            "client-17", testbed.ap_ids()[:3])
        estimate = service.localize(spectra, "client-17")
        expected = service.localize_many({"client-17": spectra})["client-17"]
        assert estimate.position == expected.position
        assert estimate.likelihood == expected.likelihood
        assert estimate.num_aps == 3


class TestStreamingSessions:
    def test_tick_matches_batch_bit_for_bit(self):
        streaming = _service(**{"session.emit_every_frames": 3})
        batch = _service()
        rng = np.random.default_rng(7)
        clients = {}
        for index in range(3):
            target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
            clients[f"c{index}"] = _spectra_for(target)
        for client_id, spectra_by_ap in clients.items():
            for ap_id, spectra in spectra_by_ap.items():
                for spectrum in spectra:
                    streaming.ingest(ap_id, spectrum, client_id=client_id,
                                     timestamp_s=0.0)
        fixes = streaming.tick()
        expected = batch.localize_many(clients)
        assert set(fixes) == set(clients)
        for client_id in clients:
            assert fixes[client_id].position == expected[client_id].position
            assert fixes[client_id].likelihood == expected[client_id].likelihood

    def test_streaming_runs_multipath_suppression_like_batch(self):
        """Multi-frame-per-AP sessions suppress exactly like the batch path."""
        spectra = {
            "ap0": [
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=200.0),
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03),
            ],
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET, timestamp_s=0.0)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET, timestamp_s=0.0)],
        }
        streaming = _service(**{"session.emit_every_frames": 4})
        for ap_id, ap_spectra in spectra.items():
            for spectrum in ap_spectra:
                streaming.ingest(ap_id, spectrum, client_id="c0",
                                 timestamp_s=spectrum.timestamp_s)
        fixes = streaming.tick()
        expected = _service().localize(spectra, "c0")
        assert fixes["c0"].position == expected.position
        assert fixes["c0"].position.distance_to(TARGET) < 0.3

    def test_frame_count_trigger(self):
        service = _service(**{"session.emit_every_frames": 3})
        for index in range(2):
            service.ingest(f"ap{index}",
                           _spectrum_towards(AP_POSITIONS[index], TARGET),
                           client_id="c", timestamp_s=0.0)
        assert service.tick() == {}
        assert not service.session("c").ready()
        service.ingest("ap2", _spectrum_towards(AP_POSITIONS[2], TARGET),
                       client_id="c", timestamp_s=0.0)
        assert service.session("c").ready()
        fixes = service.tick()
        assert set(fixes) == {"c"}
        assert service.session("c").pending_frames == 0

    def test_max_age_trigger_with_explicit_now(self):
        service = _service(**{"session.emit_every_frames": 0,
                              "session.max_age_s": 1.0})
        service.ingest("ap0", _spectrum_towards(AP_POSITIONS[0], TARGET),
                       client_id="c", timestamp_s=0.0)
        assert service.tick(now_s=0.5) == {}
        fixes = service.tick(now_s=1.2)
        assert set(fixes) == {"c"}

    def test_max_age_trigger_uses_last_ingest_when_now_omitted(self):
        service = _service(**{"session.emit_every_frames": 0,
                              "session.max_age_s": 1.0})
        service.ingest("ap0", _spectrum_towards(AP_POSITIONS[0], TARGET),
                       client_id="c", timestamp_s=0.0)
        assert service.tick() == {}
        service.ingest("ap1", _spectrum_towards(AP_POSITIONS[1], TARGET),
                       client_id="c", timestamp_s=1.5)
        fixes = service.tick()
        assert set(fixes) == {"c"}

    def test_tick_reads_each_drained_session_once(self, monkeypatch):
        # The drain after a fix only discards: the one pending_spectra()
        # read per client is the batch tick() synthesizes from.
        service = _service(**{"session.emit_every_frames": 3})
        for index in range(4):
            target = Point2D(3.0 + 3.0 * index, 5.0)
            for ap_id, spectra in _spectra_for(target).items():
                service.ingest(ap_id, spectra[0], client_id=f"c{index}",
                               timestamp_s=0.0)
        reads = []
        original = Session.pending_spectra

        def counting(session):
            reads.append(session.client_id)
            return original(session)

        monkeypatch.setattr(Session, "pending_spectra", counting)
        fixes = service.tick()
        assert set(fixes) == {"c0", "c1", "c2", "c3"}
        assert sorted(reads) == ["c0", "c1", "c2", "c3"]
        assert service.session("c0").drain() is None

    def test_flush_drains_without_triggers(self):
        service = _service(**{"session.emit_every_frames": 100})
        service.ingest("ap0", _spectrum_towards(AP_POSITIONS[0], TARGET),
                       client_id="c", timestamp_s=0.0)
        assert service.tick() == {}
        fixes = service.flush()
        assert set(fixes) == {"c"}
        assert service.flush() == {}

    def test_pending_cap_drops_oldest_frame(self):
        service = _service(**{"session.emit_every_frames": 0,
                              "session.max_pending_frames": 2})
        session = None
        for index in range(3):
            session = service.ingest(
                "ap0",
                _spectrum_towards(AP_POSITIONS[0], TARGET,
                                  timestamp_s=float(index)),
                client_id="c", timestamp_s=float(index))
        assert session.pending_frames == 2
        assert session.oldest_pending_s == 1.0

    def test_pending_cap_uses_ingest_timestamps_not_spectrum_ones(self):
        """Cap eviction must track the ingest-resolved times, so the max-age
        trigger stays sane when spectra carry the default timestamp 0.0."""
        service = _service(**{"session.emit_every_frames": 0,
                              "session.max_age_s": 10.0,
                              "session.max_pending_frames": 2})
        session = None
        for step in range(3):
            # Spectra keep their default timestamp_s=0.0; real times are
            # supplied via ingest(..., timestamp_s=...).
            session = service.ingest(
                "ap0", _spectrum_towards(AP_POSITIONS[0], TARGET),
                client_id="c", timestamp_s=100.0 + step)
        assert session.pending_frames == 2
        assert session.oldest_pending_s == 101.0
        # Frames are ~1 s old, far below max_age_s: no fix yet.
        assert not session.ready(102.0)
        assert session.ready(111.5)

    def test_pending_cap_drops_globally_oldest_under_reordering(self):
        """Out-of-order arrival within one AP must not shield old frames."""
        service = _service(**{"session.emit_every_frames": 0,
                              "session.max_pending_frames": 2})
        for timestamp, ap_index in ((5.0, 0), (1.0, 0), (3.0, 1)):
            session = service.ingest(
                f"ap{ap_index}",
                _spectrum_towards(AP_POSITIONS[ap_index], TARGET,
                                  timestamp_s=timestamp),
                client_id="c", timestamp_s=timestamp)
        assert session.pending_frames == 2
        # The ts=1.0 frame (globally oldest, but not its AP list's head)
        # was evicted; 3.0 and 5.0 remain.
        assert session.oldest_pending_s == 3.0
        assert sorted(session.pending_aps) == ["ap0", "ap1"]

    def test_fixes_recorded_in_tracker(self):
        service = _service(**{"session.emit_every_frames": 1})
        for step in range(3):
            service.ingest("ap0",
                           _spectrum_towards(AP_POSITIONS[0], TARGET,
                                             timestamp_s=float(step)),
                           client_id="c", timestamp_s=float(step))
            service.tick()
        assert len(service.track("c")) == 3
        assert service.latest_fix("c") is service.track("c")[-1]
        assert service.latest_fix("c").timestamp_s == 2.0

    def test_fix_history_is_capped_by_the_tracker(self, monkeypatch):
        # The tracker's capped history is the only fix history; the
        # session keeps none that could grow for the session's lifetime.
        monkeypatch.setattr(tracker_module, "TRACK_CAPACITY", 4)
        service = _service(**{"session.emit_every_frames": 1})
        for step in range(10):
            service.ingest("ap0",
                           _spectrum_towards(AP_POSITIONS[0], TARGET),
                           client_id="c", timestamp_s=float(step))
            service.tick()
        assert [point.timestamp_s for point in service.track("c")] == \
            [6.0, 7.0, 8.0, 9.0]
        assert not hasattr(service.session("c"), "fixes")

    def test_client_id_from_spectrum(self):
        service = _service()
        spectrum = _spectrum_towards(AP_POSITIONS[0], TARGET, client_id="tagged")
        session = service.ingest(None, spectrum)
        assert session.client_id == "tagged"
        assert session.pending_aps == [spectrum.ap_id]


class TestStreamingSuppression:
    GHOST = 200.0

    def _burst(self, ap_index, t0, ghost=None):
        """Two frames 30 ms apart; the first optionally carries a ghost peak."""
        return [
            _spectrum_towards(AP_POSITIONS[ap_index], TARGET, timestamp_s=t0,
                              extra_peak=ghost),
            _spectrum_towards(AP_POSITIONS[ap_index], TARGET,
                              timestamp_s=t0 + 0.03),
        ]

    def _ingest_all(self, service, spectra_by_ap, client_id="c"):
        for ap_id, frames in spectra_by_ap.items():
            for spectrum in frames:
                service.ingest(ap_id, spectrum, client_id=client_id,
                               timestamp_s=spectrum.timestamp_s)

    def test_disabled_stage_is_bit_identical_to_batch_path(self):
        """Off by default: even ghost-bearing bursts the stage would rewrite
        drain exactly like localize_many on the same pending frames."""
        spectra = {
            "ap0": self._burst(0, 0.0, ghost=self.GHOST),
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET)],
        }
        streaming = _service(**{"session.emit_every_frames": 4})
        assert streaming.config.session.suppress_multipath is False
        self._ingest_all(streaming, spectra)
        fixes = streaming.tick()
        expected = _service().localize_many({"c": spectra})
        assert fixes["c"].position == expected["c"].position
        assert fixes["c"].likelihood == expected["c"].likelihood

    def test_enabled_stage_suppresses_ghost_and_finds_target(self):
        streaming = _service(**{"session.emit_every_frames": 4,
                                "session.suppress_multipath": True})
        spectra = {
            "ap0": self._burst(0, 0.0, ghost=self.GHOST),
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET)],
        }
        self._ingest_all(streaming, spectra)
        fixes = streaming.tick()
        assert fixes["c"].position.distance_to(TARGET) < 0.3
        # The ghost lobe was attenuated before synthesis: folding the raw
        # frames instead gives a different likelihood product.
        raw = _service().server.synthesize_batch(
            {"c": [s for frames in spectra.values() for s in frames]})
        assert fixes["c"].likelihood != raw["c"].likelihood

    def test_enabled_stage_feeds_one_primary_per_burst(self):
        """Two bursts 1 s apart contribute one suppressed primary each,
        unlike the batch path which only folds the first time group."""
        spectra = {
            "ap0": self._burst(0, 0.0, ghost=self.GHOST)
            + self._burst(0, 1.0),
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET)],
        }
        streaming = _service(**{"session.emit_every_frames": 6,
                                "session.suppress_multipath": True})
        self._ingest_all(streaming, spectra)
        fixes = streaming.tick()
        reference = _service()
        suppressor = reference.config.suppressor
        processed = [out for frames in spectra.values()
                     for out in suppressor.process(frames)]
        assert len(processed) == 4  # 2 bursts for ap0, 1 spectrum each other
        expected = reference.server.synthesize_batch({"c": processed})
        assert fixes["c"].position == expected["c"].position
        assert fixes["c"].likelihood == expected["c"].likelihood

    def test_enabled_stage_groups_on_ingest_timestamps(self):
        """Frames carrying the default timestamp 0.0 but ingested 5 s apart
        form singleton groups: nothing may be suppressed."""
        ghost_frame = _spectrum_towards(AP_POSITIONS[0], TARGET,
                                        extra_peak=self.GHOST)
        clean_frame = _spectrum_towards(AP_POSITIONS[0], TARGET)
        others = {f"ap{i}": _spectrum_towards(AP_POSITIONS[i], TARGET)
                  for i in (1, 2)}
        streaming = _service(**{"session.emit_every_frames": 4,
                                "session.suppress_multipath": True})
        streaming.ingest("ap0", ghost_frame, client_id="c", timestamp_s=0.0)
        streaming.ingest("ap0", clean_frame, client_id="c", timestamp_s=5.0)
        for ap_id, spectrum in others.items():
            streaming.ingest(ap_id, spectrum, client_id="c", timestamp_s=5.0)
        fixes = streaming.tick()
        expected = _service().server.synthesize_batch(
            {"c": [ghost_frame, clean_frame, *others.values()]})
        assert fixes["c"].position == expected["c"].position
        assert fixes["c"].likelihood == expected["c"].likelihood

    def test_suppressor_section_parameterizes_the_stage(self):
        """A zero-size window turns every frame into a singleton group."""
        spectra = {
            "ap0": self._burst(0, 0.0, ghost=self.GHOST),
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET)],
        }
        streaming = _service(**{"session.emit_every_frames": 4,
                                "session.suppress_multipath": True,
                                "suppressor.window_s": 0.0})
        self._ingest_all(streaming, spectra)
        fixes = streaming.tick()
        expected = _service().server.synthesize_batch(
            {"c": [s for frames in spectra.values() for s in frames]})
        assert fixes["c"].position == expected["c"].position
        assert fixes["c"].likelihood == expected["c"].likelihood


class TestClientTrackAccess:
    def test_track_and_latest_fix_accessors(self):
        service = _service(**{"session.emit_every_frames": 1})
        for step in range(3):
            service.ingest("ap0",
                           _spectrum_towards(AP_POSITIONS[0], TARGET,
                                             timestamp_s=float(step)),
                           client_id="c", timestamp_s=float(step))
            service.tick()
        track = service.track("c")
        assert len(track) == 3
        assert [point.timestamp_s for point in track] == [0.0, 1.0, 2.0]
        assert service.latest_fix("c") == track[-1]
        assert service.latest_fix("missing") is None
        assert service.track("missing") == []

    def test_stale_tick_inserts_its_fix_in_time_order(self):
        service = _service(**{"session.emit_every_frames": 1})
        service.ingest("ap0", _spectrum_towards(AP_POSITIONS[0], TARGET),
                       client_id="c", timestamp_s=0.0)
        service.tick(now_s=10.0)
        service.ingest("ap0", _spectrum_towards(AP_POSITIONS[0], TARGET),
                       client_id="c", timestamp_s=1.0)
        assert set(service.tick(now_s=5.0)) == {"c"}
        assert service.session("c").pending_frames == 0
        assert [point.timestamp_s for point in service.track("c")] == \
            [5.0, 10.0]
        assert service.latest_fix("c").timestamp_s == 10.0

    @pytest.mark.parametrize("now_s", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_tick_time_commits_nothing(self, now_s):
        # A fix stamped NaN used to be committed; a later tick at 0.5
        # after a fix at 1.0 was then appended after it, leaving the
        # track at [1.0, nan, 0.5].
        service = _service(**{"session.emit_every_frames": 1})

        def ingest(timestamp_s):
            for index, client_id in enumerate(("a", "b")):
                service.ingest(f"ap{index}",
                               _spectrum_towards(AP_POSITIONS[index], TARGET),
                               client_id=client_id, timestamp_s=timestamp_s)

        ingest(0.0)
        assert set(service.tick(now_s=1.0)) == {"a", "b"}
        ingest(1.5)
        with pytest.raises(EstimationError, match="non-finite"):
            service.tick(now_s=now_s)
        for client_id in ("a", "b"):
            assert service.session(client_id).pending_frames == 1
            assert [point.timestamp_s
                    for point in service.track(client_id)] == [1.0]
        assert set(service.tick(now_s=2.0)) == {"a", "b"}
        for client_id in ("a", "b"):
            assert [point.timestamp_s
                    for point in service.track(client_id)] == [1.0, 2.0]


class TestIngestValidation:
    def test_missing_client_id_rejected(self):
        service = _service()
        with pytest.raises(ConfigurationError, match="client id"):
            service.ingest("ap0", _spectrum_towards(AP_POSITIONS[0], TARGET))

    def test_missing_ap_id_rejected(self):
        service = _service()
        angles = default_angle_grid(1.0)
        anonymous = AoASpectrum(angles, np.ones_like(angles),
                                ap_position=AP_POSITIONS[0])
        with pytest.raises(ConfigurationError, match="AP id"):
            service.ingest(None, anonymous, client_id="c")

    def test_unsupported_payload_rejected(self):
        service = _service()
        with pytest.raises(ConfigurationError, match="cannot ingest"):
            service.ingest("ap0", object(), client_id="c")

    def test_empty_client_id_session_rejected(self):
        with pytest.raises(ConfigurationError):
            _service().session("")

    def test_buffer_entry_needs_known_ap(self):
        service = _service()
        ap = ArrayTrackAP("probe", Point2D(0.0, 0.0),
                          config=APConfig(num_antennas=4,
                                          use_symmetry_antenna=False,
                                          apply_phase_offsets=False),
                          rng=np.random.default_rng(1))
        channel = MultipathChannel.from_bearings(
            [60.0], [1.0], direct_index=0, client_id="c9", ap_id="probe")
        entry = ap.overhear(channel, timestamp_s=0.5)
        with pytest.raises(ConfigurationError, match="BufferEntry"):
            service.ingest("probe", entry)
        service.adopt_aps([ap])
        session = service.ingest("probe", entry)
        assert session.client_id == "c9"
        assert session.pending_frames == 1
        assert session.last_ingest_s == 0.5

    def test_adopt_aps_rejects_a_spectrum_config_mismatch(self):
        service = _service(**{"ap.spectrum.method": "bartlett"})

        def ap(ap_id, **spectrum):
            return ArrayTrackAP(ap_id, Point2D(0.0, 0.0), config=APConfig(
                apply_phase_offsets=False,
                spectrum=SpectrumConfig(**{"method": "bartlett", **spectrum})))

        with pytest.raises(ConfigurationError,
                           match=r"'ap1' runs ap\.spectrum\.method='music'"):
            service.adopt_aps([ap("ap0"), ap("ap1", method="music")])
        with pytest.raises(ConfigurationError,
                           match=r"ap\.spectrum\.angle_resolution_deg=2\.0"):
            service.adopt_aps([ap("ap2", angle_resolution_deg=2.0)])
        # All or nothing: the matching ap0 was not registered either.
        assert service.aps == {}
        # Leaves outside ap.spectrum (here apply_phase_offsets) may differ.
        service.adopt_aps([ap("ap0")])
        assert list(service.aps) == ["ap0"]

    def test_empty_tick_batch_never_reaches_engine(self):
        service = _service()
        assert service.tick() == {}
        assert service.flush() == {}
        with pytest.raises(EstimationError):
            service.localize_many({})

    def test_failed_tick_preserves_all_pending_frames(self):
        """One poisoned client must not destroy any session's frames."""
        service = _service(**{"session.emit_every_frames": 1})
        service.ingest("ap0", _spectrum_towards(AP_POSITIONS[0], TARGET),
                       client_id="good", timestamp_s=0.0)
        angles = default_angle_grid(1.0)
        poisoned = AoASpectrum(angles, np.ones_like(angles), ap_id="ap9")
        service.ingest("ap9", poisoned, client_id="bad", timestamp_s=0.0)
        with pytest.raises(EstimationError, match="AP position"):
            service.tick()
        # Nothing was drained and no fix recorded.
        assert service.session("good").pending_frames == 1
        assert service.session("bad").pending_frames == 1
        assert service.track("good") == []
        # Discarding the poisoned session lets the good one proceed.
        service.session("bad").drain()
        fixes = service.tick()
        assert set(fixes) == {"good"}


class TestIngestMany:
    def _probe_ap(self, seed=1):
        return ArrayTrackAP("probe", Point2D(1.0, 1.0),
                            config=APConfig(num_antennas=8,
                                            use_symmetry_antenna=True,
                                            apply_phase_offsets=False),
                            rng=np.random.default_rng(seed))

    def _burst(self, ap, num_frames, client_id, rng):
        channel = MultipathChannel.from_bearings(
            [60.0, 130.0], [1.0, 0.5 * np.exp(0.4j)],
            direct_index=0, client_id=client_id, ap_id=ap.ap_id)
        return [ap.overhear(channel, timestamp_s=0.03 * index, rng=rng)
                for index in range(num_frames)]

    def test_closed_service_freed_without_cycle_collector(self):
        """Sessions do not refer back to their service, so a closed
        service goes as soon as its last reference does."""
        ap = self._probe_ap()
        entries = self._burst(ap, 4, "c1", np.random.default_rng(2))
        gc.collect()
        gc.disable()
        try:
            service = _service(**{"session.emit_every_frames": 4,
                                  "session.suppress_multipath": True})
            service.adopt_aps([ap])
            service.ingest_many("probe", entries)
            assert list(service.tick()) == ["c1"]
            service.close()
            reference = weakref.ref(service)
            del service
            assert reference() is None
        finally:
            gc.enable()

    def test_batched_ingest_matches_serial_ingest_bitwise(self):
        ap = self._probe_ap()
        entries = self._burst(ap, 4, "c1", np.random.default_rng(2))
        serial = _service()
        serial.adopt_aps([ap])
        for entry in entries:
            serial.ingest("probe", entry)
        batched = _service()
        batched.adopt_aps([ap])
        sessions = batched.ingest_many("probe", entries)
        assert len(sessions) == 4
        assert all(session is sessions[0] for session in sessions)
        reference = serial.session("c1").pending_spectra()
        candidate = batched.session("c1").pending_spectra()
        assert list(reference) == list(candidate)
        for reference_list, candidate_list in zip(reference.values(),
                                                  candidate.values(),
                                                  strict=True):
            for expected, actual in zip(reference_list, candidate_list,
                                        strict=True):
                assert np.array_equal(expected.power, actual.power)

    def test_mixed_spectra_and_entries_keep_input_order(self):
        ap = self._probe_ap()
        entries = self._burst(ap, 2, "c2", np.random.default_rng(5))
        spectrum = _spectrum_towards(AP_POSITIONS[0], TARGET,
                                     timestamp_s=0.5, client_id="c2")
        service = _service()
        service.adopt_aps([ap])
        sessions = service.ingest_many(
            ap, [entries[0], spectrum, entries[1]])
        assert len(sessions) == 3
        session = service.session("c2")
        assert session.pending_frames == 3
        assert session.pending_times()["probe"] == [0.0, 0.5, 0.03]

    def test_raw_entries_need_known_ap(self):
        ap = self._probe_ap()
        entries = self._burst(ap, 2, "c3", np.random.default_rng(7))
        service = _service()
        with pytest.raises(ConfigurationError, match="BufferEntries"):
            service.ingest_many("probe", entries)
        assert service.ingest_many("probe", []) == []


class TestCuratedExports:
    def test_one_line_import(self):
        from repro import ArrayTrackConfig as Config
        from repro import ArrayTrackService as Service

        assert Service is ArrayTrackService
        assert Config is ArrayTrackConfig

    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version_exposed(self):
        import repro

        assert repro.__version__
        assert "ArrayTrackService" in dir(repro)
