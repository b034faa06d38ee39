"""Tests for package-level constants, errors and the README quickstart flow."""

import math

import pytest

import repro
from repro import constants, errors
from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.constants import phase_constant, wavelength_for_frequency
from repro.testbed import ScenarioConfig, SimulatedDeployment, build_office_testbed


class TestConstants:
    def test_wavelength_matches_carrier(self):
        # 2.437 GHz -> roughly 12.3 cm.
        assert constants.WAVELENGTH_M == pytest.approx(0.123, abs=0.002)

    def test_antenna_spacing_is_half_wavelength(self):
        assert constants.ANTENNA_SPACING_M == pytest.approx(
            constants.WAVELENGTH_M / 2.0)
        # The paper quotes 6.13 cm.
        assert constants.ANTENNA_SPACING_M == pytest.approx(0.0613, abs=0.001)

    def test_preamble_duration(self):
        sts = (constants.NUM_SHORT_TRAINING_SYMBOLS
               * constants.SHORT_TRAINING_SYMBOL_DURATION_S)
        lts = (constants.NUM_LONG_TRAINING_SYMBOLS
               * constants.LONG_TRAINING_SYMBOL_DURATION_S)
        guard = 2 * constants.GUARD_INTERVAL_DURATION_S
        assert sts + lts + guard == pytest.approx(constants.PREAMBLE_DURATION_S)

    def test_ten_samples_are_250_nanoseconds(self):
        # Section 2.1: ten samples at 40 Msps span 250 ns.
        assert (constants.DEFAULT_NUM_SNAPSHOTS
                / constants.SAMPLE_RATE_HZ) == pytest.approx(250e-9)

    def test_wavelength_helper(self):
        assert wavelength_for_frequency(constants.CARRIER_FREQUENCY_HZ) == \
            pytest.approx(constants.WAVELENGTH_M)
        with pytest.raises(ValueError):
            wavelength_for_frequency(0.0)

    def test_phase_constant(self):
        assert phase_constant(1.0) == pytest.approx(2 * math.pi)
        with pytest.raises(ValueError):
            phase_constant(-1.0)

    def test_version_exposed(self):
        assert repro.__version__


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in ("GeometryError", "SignalError", "ChannelError", "ArrayError",
                     "DetectionError", "EstimationError", "ConfigurationError"):
            error_class = getattr(errors, name)
            assert issubclass(error_class, errors.ArrayTrackError)
            assert issubclass(error_class, Exception)


class TestQuickstart:
    """The README quickstart flow: a testbed deployment and the facade."""

    @staticmethod
    def _flow(grid_resolution_m):
        testbed = build_office_testbed()
        deployment = SimulatedDeployment(testbed, ScenarioConfig(seed=7))
        service = ArrayTrackService(ArrayTrackConfig(bounds=testbed.bounds).updated(
            {"server.localizer.grid_resolution_m": grid_resolution_m}))
        return testbed, deployment, service

    def test_localize_one_client_returns_estimate_and_truth(self):
        testbed, deployment, service = self._flow(grid_resolution_m=0.5)
        spectra = deployment.collect_client_spectra("client-17",
                                                    testbed.ap_ids()[:4])
        estimate = service.localize(spectra, "client-17")
        truth = testbed.client_position("client-17")
        assert estimate.num_aps == 4
        assert estimate.error_to(truth) < 5.0

    def test_localize_all_clients_returns_per_client_errors(self):
        testbed, deployment, service = self._flow(grid_resolution_m=0.5)
        errors_cm = {}
        for client_id in testbed.client_ids()[:2]:
            deployment.clear()
            spectra = deployment.collect_client_spectra(client_id)
            estimate = service.localize(spectra, client_id)
            errors_cm[client_id] = estimate.error_to(
                testbed.client_position(client_id)) * 100.0
        assert len(errors_cm) == 2
        assert all(value >= 0.0 for value in errors_cm.values())
