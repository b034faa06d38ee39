"""The AoA spectrum estimator is chosen by one leaf: ``ap.spectrum.method``."""

import numpy as np
import pytest

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.channel import MultipathChannel
from repro.core import SpectrumComputer, SpectrumConfig
from repro.errors import ConfigurationError
from repro.geometry import Point2D

BOUNDS = (0.0, 0.0, 20.0, 10.0)


def _service(**overrides):
    return ArrayTrackService(ArrayTrackConfig(bounds=BOUNDS).updated(overrides))


def _entries(ap, count=3, seed=7):
    rng = np.random.default_rng(seed)
    entries = []
    for index in range(count):
        channel = MultipathChannel.from_bearings(
            [float(rng.uniform(20.0, 160.0)), float(rng.uniform(200.0, 340.0))],
            [1.0, 0.5 * np.exp(1j * float(rng.uniform(0.0, 6.0)))],
            client_id="c0")
        entries.append(ap.overhear(channel, timestamp_s=0.01 * index, rng=rng))
    return entries


class TestSpectrumMethod:
    @pytest.mark.parametrize("method", ["music", "bartlett", "capon"])
    @pytest.mark.parametrize("symmetry", [True, False])
    def test_service_and_built_aps_run_the_configured_method(self, method,
                                                              symmetry):
        # The top-level ``estimator`` default used to override this leaf:
        # a tree loaded with method="bartlett" ran MUSIC everywhere.
        service = _service(**{"ap.spectrum.method": method,
                              "ap.use_symmetry_antenna": symmetry,
                              "ap.apply_phase_offsets": False})
        assert service.spectrum_config.method == method
        assert service.spectrum_config == SpectrumConfig(method=method)
        ap = service.build_ap("ap0", Point2D(1.0, 1.0))
        assert ap.config.spectrum.method == method
        entries = _entries(ap)
        direct = SpectrumComputer(SpectrumConfig(method=method))
        for entry, spectrum in zip(entries, ap.compute_spectra(entries),
                                   strict=True):
            if symmetry:
                expected = direct.compute_with_symmetry(
                    entry.snapshots, ap.array, ap.linear_indices)
            else:
                expected = direct.compute(entry.snapshots, ap.array)
            assert np.array_equal(spectrum.power, expected.power)
            assert np.array_equal(spectrum.angles_deg, expected.angles_deg)

    def test_methods_give_different_spectra(self):
        spectra = {}
        for method in ("music", "bartlett"):
            ap = _service(**{"ap.spectrum.method": method,
                             "ap.apply_phase_offsets": False}).build_ap(
                "ap0", Point2D(1.0, 1.0))
            spectra[method] = ap.compute_spectra(_entries(ap))[0].power
        assert not np.array_equal(spectra["music"], spectra["bartlett"])

    def test_method_reaches_the_service_from_the_environment(self):
        config = ArrayTrackConfig(bounds=BOUNDS).with_env_overrides(
            {"ARRAYTRACK_AP__SPECTRUM__METHOD": "capon"})
        assert ArrayTrackService(config).spectrum_config.method == "capon"

    def test_unknown_method_fails_at_load(self):
        with pytest.raises(ConfigurationError,
                           match=r"config\.ap\.spectrum: unknown spectrum "
                                 r"method 'esprit'"):
            ArrayTrackConfig().updated({"ap.spectrum.method": "esprit"})

    def test_built_ap_configs_are_isolated(self):
        service = _service()
        first = service.build_ap("ap0", Point2D(1.0, 1.0))
        second = service.build_ap("ap1", Point2D(2.0, 2.0))
        first.config.spectrum.method = "bartlett"
        assert second.config.spectrum.method == "music"
        assert service.spectrum_config.method == "music"
