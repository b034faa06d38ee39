"""Pickle round-trip contracts the process backend depends on.

``parallel.backend="process"`` ships the service's
:class:`~repro.api.config.ArrayTrackConfig` tree through the spawn pipe to
every worker (and benchmark/experiment code pickles testbeds and geometry
for the same reason), so these objects must round-trip through
``pickle.dumps``/``loads`` cheaply and with *behavioral* equality -- not
just attribute equality: an unpickled config must build a service that
produces bit-identical fixes, an unpickled geometry must produce the same
steering matrices.
"""

import pickle

import numpy as np
import pytest

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.api.config import _config_from_state
from repro.array import ArrayGeometry
from repro.core import AoASpectrum, default_angle_grid
from repro.errors import ConfigurationError
from repro.geometry import Point2D, bearing_deg
from repro.testbed.office import OfficeTestbed

BOUNDS = (0.0, 0.0, 20.0, 10.0)


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestConfigPickling:
    def test_default_tree_round_trips(self):
        config = ArrayTrackConfig()
        restored = _round_trip(config)
        assert isinstance(restored, ArrayTrackConfig)
        assert restored == config
        assert restored.to_json() == config.to_json()

    def test_every_section_survives_with_non_default_values(self):
        config = ArrayTrackConfig(bounds=BOUNDS).updated({
            "ap.num_antennas": 4,
            "ap.spectrum.method": "bartlett",
            "ap.spectrum.angle_resolution_deg": 2.0,
            "server.localizer.grid_resolution_m": 0.2,
            "server.enable_multipath_suppression": False,
            "session.emit_every_frames": 5,
            "session.suppress_multipath": True,
            "suppressor.tolerance_deg": 7.5,
            "parallel.backend": "process",
            "parallel.num_workers": 3,
            "parallel.min_clients_per_worker": 4,
        })
        restored = _round_trip(config)
        assert restored == config
        assert restored.parallel.backend == "process"
        assert restored.parallel.num_workers == 3
        assert restored.session.suppress_multipath is True
        assert restored.server.localizer.grid_resolution_m == 0.2
        assert restored.ap.spectrum.method == "bartlett"
        assert restored.bounds == BOUNDS

    def test_pickle_payload_is_the_plain_dict_tree(self):
        # The reduce hook must go through the dict round-trip (so workers
        # re-validate on unpickle), not through per-field __dict__ state.
        config = ArrayTrackConfig(bounds=BOUNDS)
        rebuild, (state,) = config.__reduce__()
        assert rebuild is _config_from_state
        assert isinstance(state, dict)
        assert state == config.to_dict()
        assert rebuild(state) == config

    def test_unpickling_re_validates(self):
        config = ArrayTrackConfig(bounds=BOUNDS)
        rebuild, (state,) = config.__reduce__()
        state["parallel"]["backend"] = "mpi"
        with pytest.raises(ConfigurationError, match="backend"):
            rebuild(state)

    def test_unpickled_config_builds_an_identical_service(self):
        config = ArrayTrackConfig(bounds=BOUNDS).updated(
            {"server.localizer.grid_resolution_m": 0.5})
        angles = default_angle_grid(1.0)
        ap_positions = [Point2D(1.0, 1.0), Point2D(19.0, 1.0)]
        target = Point2D(12.0, 6.0)
        clients = {}
        for index in range(3):
            per_ap = {}
            for i, position in enumerate(ap_positions):
                bearing = bearing_deg(position, target)
                distance = np.minimum(np.abs(angles - bearing),
                                      360 - np.abs(angles - bearing))
                power = np.exp(-0.5 * (distance / 3.0) ** 2) + 1e-4
                per_ap[f"ap{i}"] = [AoASpectrum(
                    angles, power, ap_position=position, ap_id=f"ap{i}")]
            clients[f"c{index}"] = per_ap
        original = ArrayTrackService(config).localize_many(clients)
        restored = ArrayTrackService(_round_trip(config)).localize_many(clients)
        assert list(restored) == list(original)
        for key in original:
            assert restored[key].position.x == original[key].position.x
            assert restored[key].position.y == original[key].position.y
            assert restored[key].likelihood == original[key].likelihood


class TestTestbedAndGeometryPickling:
    def test_office_testbed_round_trips(self):
        testbed = OfficeTestbed()
        restored = _round_trip(testbed)
        assert restored.bounds == testbed.bounds
        assert restored.ap_ids() == testbed.ap_ids()
        assert restored.client_ids() == testbed.client_ids()
        for ap_id in testbed.ap_ids():
            original_site = testbed.ap_site(ap_id)
            restored_site = restored.ap_site(ap_id)
            assert restored_site.position == original_site.position
            assert restored_site.orientation_deg == original_site.orientation_deg
        for client_id in testbed.client_ids():
            assert restored.client_position(client_id) \
                == testbed.client_position(client_id)

    def test_array_geometry_round_trips_behaviorally(self):
        geometry = ArrayGeometry.uniform_linear(8)
        restored = _round_trip(geometry)
        assert restored.num_elements == geometry.num_elements
        np.testing.assert_array_equal(restored.element_positions,
                                      geometry.element_positions)
        angles = default_angle_grid(1.0)
        np.testing.assert_array_equal(
            restored.steering_matrix(angles, 0.0, 0.125),
            geometry.steering_matrix(angles, 0.0, 0.125))

    def test_spectrum_round_trips(self):
        angles = default_angle_grid(1.0)
        rng = np.random.default_rng(5)
        spectrum = AoASpectrum(
            angles, rng.random(angles.shape[0]) + 0.01,
            ap_position=Point2D(3.0, 4.0), ap_orientation_deg=45.0,
            client_id="c1", ap_id="ap1", timestamp_s=1.25)
        restored = _round_trip(spectrum)
        np.testing.assert_array_equal(restored.angles_deg, spectrum.angles_deg)
        np.testing.assert_array_equal(restored.power, spectrum.power)
        assert restored.ap_position == spectrum.ap_position
        assert restored.ap_orientation_deg == spectrum.ap_orientation_deg
        assert restored.client_id == spectrum.client_id
        assert restored.ap_id == spectrum.ap_id
        assert restored.timestamp_s == spectrum.timestamp_s
