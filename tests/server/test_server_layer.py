"""Tests for the ArrayTrack server backend, the batch path above it, and the
client tracker."""

import numpy as np
import pytest

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.core import AoASpectrum, LocalizerConfig, LocationEstimate, default_angle_grid
from repro.errors import ConfigurationError, EstimationError
from repro.geometry import Point2D, bearing_deg
from repro.server import ArrayTrackServer, ClientTracker, ServerConfig
from repro.server.tracker import SMOOTHING_WEIGHT, TRACK_CAPACITY

from tests.core._oracle import reference_suppress


def _spectrum_towards(ap_position, target, width=3.0, timestamp_s=0.0,
                      extra_peak=None):
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
                       timestamp_s=timestamp_s)


BOUNDS = (0.0, 0.0, 20.0, 10.0)
TARGET = Point2D(12.0, 6.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]


class TestArrayTrackServer:
    def _server(self, **config_kwargs):
        config = ServerConfig(localizer=LocalizerConfig(grid_resolution_m=0.2),
                              **config_kwargs)
        return ArrayTrackServer(BOUNDS, config)

    def _service(self, **config_kwargs):
        """The facade over a server configured exactly like ``_server``."""
        return ArrayTrackService(ArrayTrackConfig(
            bounds=BOUNDS, server=self._server(**config_kwargs).config))

    def test_localize_finds_target(self):
        service = self._service()
        spectra = {f"ap{i}": [_spectrum_towards(p, TARGET)]
                   for i, p in enumerate(AP_POSITIONS)}
        estimate = service.localize(spectra, client_id="c")
        assert isinstance(estimate, LocationEstimate)
        assert estimate.position.distance_to(TARGET) < 0.3
        assert estimate.client_id == "c"

    def test_multipath_suppression_removes_unstable_ghost(self):
        """A reflection peak present in only one frame should be suppressed."""
        ghost_bearing = 200.0
        spectra = {
            "ap0": [
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=ghost_bearing),
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03),
            ],
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET, timestamp_s=0.0)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET, timestamp_s=0.0)],
        }
        with_suppression = self._service(enable_multipath_suppression=True)
        estimate = with_suppression.localize(spectra)
        assert estimate.position.distance_to(TARGET) < 0.3

    def test_no_spectra_raises(self):
        with pytest.raises(EstimationError):
            self._service().localize({})

    def test_latency_breakdown_uses_measured_processing(self):
        service = self._service()
        server = service.server
        spectra = {f"ap{i}": [_spectrum_towards(p, TARGET)]
                   for i, p in enumerate(AP_POSITIONS)}
        service.localize(spectra)
        assert server.last_processing_s is not None
        breakdown = server.latency_breakdown(use_measured_processing=True)
        assert breakdown.processing_s == pytest.approx(server.last_processing_s)
        paper = server.latency_breakdown(use_measured_processing=False)
        assert paper.processing_s == pytest.approx(0.1)

    def _batch_of_clients(self, count):
        rng = np.random.default_rng(11)
        clients = {}
        for index in range(count):
            target = Point2D(rng.uniform(1.0, 19.0), rng.uniform(1.0, 9.0))
            clients[f"c{index}"] = {
                f"ap{i}": [_spectrum_towards(p, target)]
                for i, p in enumerate(AP_POSITIONS)
            }
        return clients

    def test_localize_many_matches_sequential_loop(self):
        service = self._service()
        clients = self._batch_of_clients(5)
        sequential = {client_id: service.localize(spectra, client_id)
                      for client_id, spectra in clients.items()}
        batched = service.localize_many(clients)
        assert set(batched) == set(clients)
        for client_id in clients:
            assert batched[client_id].position.distance_to(
                sequential[client_id].position) <= 1e-9
            assert batched[client_id].client_id == client_id

    def test_localize_many_runs_multipath_suppression_per_client(self):
        """Each client's per-AP frames are suppressed exactly as when alone."""
        ghost_bearing = 200.0
        spectra = {
            "ap0": [
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=ghost_bearing),
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03),
            ],
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET, timestamp_s=0.0)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET, timestamp_s=0.0)],
        }
        service = self._service(enable_multipath_suppression=True)
        single = service.localize(spectra, "c0")
        batched = service.localize_many(
            {**self._batch_of_clients(2), "c0": spectra})
        assert batched["c0"].position == single.position
        assert batched["c0"].likelihood == single.likelihood
        assert batched["c0"].position.distance_to(TARGET) < 0.3

    def test_localize_many_folds_the_earliest_burst_primary(self):
        """With two bursts at one AP, the earliest burst's primary enters.

        ap0 holds a ghost burst at t=0 and a clean burst at t=1, listed
        latest first; the fold must take the suppressed t=0 primary.  The
        t=1 burst points elsewhere, so folding it would move the fix.
        """
        ghost = _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=200.0)
        companion = _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03)
        clean = [_spectrum_towards(AP_POSITIONS[0], Point2D(15.0, 3.0),
                                   timestamp_s=t)
                 for t in (1.0, 1.03)]
        others = [_spectrum_towards(p, TARGET) for p in AP_POSITIONS[1:]]
        service = self._service(enable_multipath_suppression=True)
        batched = service.localize_many(
            {"c": {"ap0": clean + [ghost, companion],
                   "ap1": [others[0]], "ap2": [others[1]]}})["c"]
        primary = reference_suppress(service.config.suppressor,
                                     [ghost, companion])
        localizer = service.server.localizer
        earliest = localizer.estimate_batch({"c": [primary] + others})["c"]
        latest = localizer.estimate_batch({"c": [clean[0]] + others})["c"]
        assert batched.position == earliest.position
        assert batched.likelihood == earliest.likelihood
        assert earliest.position.distance_to(TARGET) < 0.3
        assert latest.position != earliest.position

    def test_localize_many_rejects_empty_input(self):
        service = self._service()
        with pytest.raises(EstimationError, match="empty client batch"):
            service.localize_many({})
        with pytest.raises(EstimationError, match="'c'"):
            service.localize_many({"c": {}})

    def test_localize_buffered_requires_aps(self):
        with pytest.raises(ConfigurationError):
            self._service().localize_buffered(["c"], aps=[])

    def test_synthesize_batch_skips_server_side_suppression(self):
        """Pre-suppressed spectra must enter the synthesis untouched."""
        ghost_bearing = 200.0
        ghost = _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=ghost_bearing)
        companion = _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03)
        others = [_spectrum_towards(p, TARGET) for p in AP_POSITIONS[1:]]
        service = self._service(enable_multipath_suppression=True)
        # localize_many groups ap0's pair and folds the one suppressed
        # primary (3 spectra total); synthesize_batch folds exactly what it
        # is given (all 4 raw spectra) -- no second suppression pass.
        suppressed = service.localize_many(
            {"c": {"ap0": [ghost, companion],
                   "ap1": [others[0]], "ap2": [others[1]]}})["c"]
        raw = service.server.synthesize_batch(
            {"c": [ghost, companion] + others})["c"]
        assert suppressed.position.distance_to(TARGET) < 0.3
        assert raw.likelihood != suppressed.likelihood

    def test_synthesize_batch_matches_unsuppressed_localize_many(self):
        service = self._service(enable_multipath_suppression=False)
        spectra = {f"ap{i}": [_spectrum_towards(p, TARGET)]
                   for i, p in enumerate(AP_POSITIONS)}
        via_batch = service.localize_many({"c": spectra})["c"]
        via_synthesis = service.server.synthesize_batch(
            {"c": [s[0] for s in spectra.values()]})["c"]
        assert via_batch.position == via_synthesis.position
        assert via_batch.likelihood == via_synthesis.likelihood

    def test_synthesize_batch_rejects_empty_input(self):
        server = self._server()
        with pytest.raises(EstimationError):
            server.synthesize_batch({})
        with pytest.raises(EstimationError, match="'c'"):
            server.synthesize_batch({"c": []})

    def test_localize_many_ragged_ap_subsets(self):
        """Clients heard by different AP subsets localize in one batch."""
        service = self._service()
        rng = np.random.default_rng(13)
        clients, sequential = {}, {}
        for index, subset in enumerate(([0, 1, 2], [0, 2], [1, 2])):
            target = Point2D(rng.uniform(2.0, 18.0), rng.uniform(2.0, 8.0))
            spectra = {f"ap{i}": [_spectrum_towards(AP_POSITIONS[i], target)]
                       for i in subset}
            clients[f"c{index}"] = spectra
        sequential = {cid: service.localize(s, cid)
                      for cid, s in clients.items()}
        batched = service.localize_many(clients)
        for cid in clients:
            assert batched[cid].position.distance_to(
                sequential[cid].position) <= 1e-9
            assert batched[cid].num_aps == sequential[cid].num_aps


def _chronological_replay(arrivals):
    """The track a list of ``(timestamp_s, position)`` arrivals must leave:
    the fixes stably sorted by time (a tie keeps arrival order), each
    smoothed from its predecessor at :data:`SMOOTHING_WEIGHT`."""
    alpha = SMOOTHING_WEIGHT
    expected = []
    for timestamp_s, position in sorted(arrivals, key=lambda item: item[0]):
        if expected:
            previous = expected[-1][2]
            smoothed = Point2D(
                alpha * position.x + (1.0 - alpha) * previous.x,
                alpha * position.y + (1.0 - alpha) * previous.y)
        else:
            smoothed = position
        expected.append((timestamp_s, position, smoothed))
    return expected


def _track_rows(tracker, client_id):
    return [(point.timestamp_s, point.position, point.smoothed_position)
            for point in tracker.track(client_id)]


class TestClientTracker:
    def _estimate(self, x, y):
        return LocationEstimate(position=Point2D(x, y), likelihood=1.0, num_aps=3)

    def test_first_fix_is_not_smoothed(self):
        tracker = ClientTracker()
        point = tracker.update("c", self._estimate(1.0, 1.0), 0.0)
        assert point.smoothed_position == Point2D(1.0, 1.0)

    def test_smoothing_blends_consecutive_fixes(self):
        tracker = ClientTracker()
        tracker.update("c", self._estimate(0.0, 0.0), 0.0)
        point = tracker.update("c", self._estimate(2.0, 0.0), 0.1)
        assert SMOOTHING_WEIGHT == 0.6
        assert point.smoothed_position.x == pytest.approx(1.2)

    def test_track_history_and_clients(self):
        tracker = ClientTracker()
        for index in range(5):
            tracker.update("a", self._estimate(float(index), 0.0), float(index))
        tracker.update("b", self._estimate(0.0, 0.0), 0.0)
        assert tracker.clients() == ["a", "b"]
        assert len(tracker.track("a")) == 5
        assert tracker.latest("a").position.x == pytest.approx(4.0)
        assert tracker.latest("missing") is None

    def test_track_keeps_the_newest_capacity_fixes(self):
        tracker = ClientTracker()
        for index in range(2 * TRACK_CAPACITY):
            tracker.update("a", self._estimate(float(index), 0.0), float(index))
        assert [point.timestamp_s for point in tracker.track("a")] == \
            [float(index) for index in range(TRACK_CAPACITY, 2 * TRACK_CAPACITY)]

    def test_path_length(self):
        tracker = ClientTracker()
        for index in range(4):
            tracker.update("a", self._estimate(float(index), 0.0), float(index))
        assert tracker.path_length_m("a", smoothed=False) == pytest.approx(3.0)
        # EMA at 0.6 along 0, 1, 2, 3: 0, 0.6, 1.44, 2.376.
        assert tracker.path_length_m("a") == pytest.approx(2.376)
        assert tracker.path_length_m("unknown") == 0.0

    def test_out_of_order_fix_inserted_chronologically(self):
        tracker = ClientTracker()
        tracker.update("a", self._estimate(0.0, 0.0), 0.0)
        tracker.update("a", self._estimate(2.0, 0.0), 2.0)
        late = tracker.update("a", self._estimate(1.0, 0.0), 1.0)
        track = tracker.track("a")
        assert [p.timestamp_s for p in track] == [0.0, 1.0, 2.0]
        assert track[1] == late
        # latest() still reports the chronologically newest fix.
        assert tracker.latest("a").timestamp_s == 2.0
        assert tracker.latest("a").position.x == pytest.approx(2.0)
        # The path walks 0 -> 1 -> 2, not 0 -> 2 -> 1 (which would be 3 m).
        assert tracker.path_length_m("a", smoothed=False) == pytest.approx(2.0)

    def test_out_of_order_fix_recomputes_smoothing_downstream(self):
        tracker = ClientTracker()
        tracker.update("a", self._estimate(0.0, 0.0), 0.0)
        tracker.update("a", self._estimate(4.0, 0.0), 2.0)
        tracker.update("a", self._estimate(2.0, 0.0), 1.0)
        track = tracker.track("a")
        # EMA along chronological order: 0, then 0.6*2, then
        # 0.6*4 + 0.4*1.2.
        assert track[0].smoothed_position.x == pytest.approx(0.0)
        assert track[1].smoothed_position.x == pytest.approx(1.2)
        assert track[2].smoothed_position.x == pytest.approx(2.88)

    def test_duplicate_timestamp_inserted_after_existing(self):
        tracker = ClientTracker()
        tracker.update("a", self._estimate(0.0, 0.0), 1.0)
        duplicate = tracker.update("a", self._estimate(5.0, 0.0), 1.0)
        track = tracker.track("a")
        assert [p.position.x for p in track] == [0.0, 5.0]
        assert tracker.latest("a") == duplicate

    @pytest.mark.parametrize("timestamp", [float("nan"), float("inf"),
                                           float("-inf")])
    def test_non_finite_timestamp_refused(self, timestamp):
        tracker = ClientTracker()
        tracker.update("a", self._estimate(0.0, 0.0), 1.0)
        with pytest.raises(EstimationError, match="non-finite"):
            tracker.update("a", self._estimate(1.0, 0.0), timestamp)
        with pytest.raises(EstimationError, match="non-finite"):
            tracker.update("new", self._estimate(1.0, 0.0), timestamp)
        assert [p.timestamp_s for p in tracker.track("a")] == [1.0]
        assert tracker.track("new") == []

    def _feed(self, tracker, client_id, arrivals):
        for timestamp_s, position in arrivals:
            tracker.update(client_id, self._estimate(position.x, position.y),
                           timestamp_s)

    @pytest.mark.parametrize("seed", range(8))
    def test_any_arrival_order_matches_the_chronological_replay(self, seed):
        rng = np.random.default_rng(seed)
        # Times on a 0.1 s grid of 12 slots, so some of the 20 fixes tie.
        arrivals = [(float(rng.integers(0, 12)) / 10.0,
                     Point2D(float(rng.uniform(0.0, 10.0)),
                             float(rng.uniform(0.0, 10.0))))
                    for _ in range(20)]
        tracker = ClientTracker()
        self._feed(tracker, "a", arrivals)
        expected = _chronological_replay(arrivals)
        assert _track_rows(tracker, "a") == expected
        assert tracker.latest("a") == tracker.track("a")[-1]
        assert tracker.path_length_m("a") == pytest.approx(sum(
            a[2].distance_to(b[2]) for a, b in zip(expected, expected[1:])))

    @pytest.mark.parametrize("overflow", [1, 2, 17])
    def test_aged_out_fixes_still_shape_the_smoothing(self, overflow):
        arrivals = [(float(index), Point2D(float(index % 11), 0.0))
                    for index in range(TRACK_CAPACITY + overflow)]
        tracker = ClientTracker()
        self._feed(tracker, "a", arrivals)
        track = _track_rows(tracker, "a")
        assert track == _chronological_replay(arrivals)[overflow:]
        # The oldest kept fix carries the EMA of the fixes that aged out.
        assert track[0][2] != track[0][1]

    @pytest.mark.parametrize("slot", [1, 2, TRACK_CAPACITY // 2,
                                      TRACK_CAPACITY - 1, TRACK_CAPACITY])
    def test_full_track_keeps_a_late_fix_newer_than_its_oldest(self, slot):
        arrivals = [(float(index), Point2D(float(index % 5), float(index % 3)))
                    for index in range(TRACK_CAPACITY)]
        tracker = ClientTracker()
        self._feed(tracker, "a", arrivals)
        late = (slot - 0.5, Point2D(9.0, 9.0))
        self._feed(tracker, "a", [late])
        # The late fix lands in time order; the oldest fix ages out.
        assert _track_rows(tracker, "a") == \
            _chronological_replay(arrivals + [late])[1:]

    @pytest.mark.parametrize("late_s", [-1e6, -1.0, 0.5])
    def test_full_track_drops_a_fix_older_than_every_kept_fix(self, late_s):
        arrivals = [(float(index), Point2D(float(index % 7), 0.0))
                    for index in range(TRACK_CAPACITY + 1)]
        tracker = ClientTracker()
        self._feed(tracker, "a", arrivals)
        before = tracker.track("a")
        point = tracker.update("a", self._estimate(50.0, 50.0), late_s)
        # Inserting it would restart the EMA of every kept fix from a fix
        # that ages out at once; the track stays as it was.
        assert tracker.track("a") == before
        assert point.timestamp_s == late_s
        assert point.smoothed_position == Point2D(50.0, 50.0)

    def test_clients_keep_separate_chronologies(self):
        rng = np.random.default_rng(3)
        arrivals = {"a": [], "b": [], "c": []}
        tracker = ClientTracker()
        for _ in range(60):
            client_id = str(rng.choice(sorted(arrivals)))
            arrival = (float(rng.integers(0, 30)),
                       Point2D(float(rng.uniform(0.0, 10.0)), 0.0))
            arrivals[client_id].append(arrival)
            self._feed(tracker, client_id, [arrival])
        assert tracker.clients() == sorted(arrivals)
        for client_id, fed in arrivals.items():
            assert _track_rows(tracker, client_id) == \
                _chronological_replay(fed)
