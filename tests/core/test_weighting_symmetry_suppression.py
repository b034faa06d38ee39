"""Tests for geometry weighting, symmetry removal and multipath suppression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.array import ArrayGeometry, DeployedArray, DiversitySynthesizer
from repro.channel import MultipathChannel
from repro.core import (
    AoASpectrum,
    MultipathSuppressor,
    SpectrumComputer,
    SpectrumConfig,
    SymmetryResolver,
    WindowCache,
    cached_geometry_window,
    default_angle_grid,
    default_window_cache,
    geometry_window,
    group_spectra_by_time,
)
from repro.errors import EstimationError

from tests.core import _oracle as oracle


def _gaussian(centers, heights, width=4.0, **metadata):
    angles = default_angle_grid(1.0)
    power = np.zeros_like(angles)
    for center, height in zip(centers, heights, strict=True):
        distance = np.minimum(np.abs(angles - center), 360 - np.abs(angles - center))
        power += height * np.exp(-0.5 * (distance / width) ** 2)
    return AoASpectrum(angles, power, **metadata)


class TestGeometryWeighting:
    def test_window_matches_paper_definition(self):
        angles = default_angle_grid(1.0)
        window = geometry_window(angles)
        # Reliable region: unity weight.
        assert window[90] == pytest.approx(1.0)
        assert window[45] == pytest.approx(1.0)
        # Near endfire: sin(theta) weight.
        assert window[5] == pytest.approx(abs(np.sin(np.radians(5.0))))
        assert window[175] == pytest.approx(abs(np.sin(np.radians(175.0))))
        # Mirror side folds onto the same endfire distance.
        assert window[355] == pytest.approx(window[5])

    def test_weighting_attenuates_endfire_peaks_only(self):
        spectrum = _gaussian([5.0, 90.0], [1.0, 1.0])
        weighted = spectrum.copy_with_power(
            spectrum.power * cached_geometry_window(spectrum.angles_deg))
        assert weighted.power_at_local(90.0)[0] == pytest.approx(
            spectrum.power_at_local(90.0)[0])
        assert weighted.power_at_local(5.0)[0] < 0.2 * spectrum.power_at_local(5.0)[0]

    def test_invalid_reliable_angle(self):
        with pytest.raises(EstimationError):
            geometry_window(default_angle_grid(1.0), reliable_angle_deg=95.0)
        with pytest.raises(EstimationError):
            cached_geometry_window(default_angle_grid(1.0),
                                   reliable_angle_deg=95.0)


class TestWindowCache:
    def test_cached_window_equals_direct_computation(self):
        angles = default_angle_grid(1.0)
        cached = cached_geometry_window(angles)
        assert np.array_equal(cached, geometry_window(angles))
        assert not cached.flags.writeable

    def test_hits_per_grid_signature_and_angle(self):
        cache = WindowCache()
        angles = default_angle_grid(1.0)
        first = cache.get(angles, 15.0, lambda: geometry_window(angles, 15.0))
        again = cache.get(angles.copy(), 15.0,
                          lambda: geometry_window(angles, 15.0))
        assert first is again          # content-derived key, not identity
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        cache.get(angles, 20.0, lambda: geometry_window(angles, 20.0))
        assert cache.stats.misses == 2  # different reliable angle, new entry
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = WindowCache(max_entries=2)
        grids = [default_angle_grid(res) for res in (1.0, 2.0, 3.0)]
        for grid in grids:
            cache.get(grid, 15.0, lambda grid=grid: geometry_window(grid))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest grid was evicted; re-fetching it is a miss.
        misses = cache.stats.misses
        cache.get(grids[0], 15.0, lambda: geometry_window(grids[0]))
        assert cache.stats.misses == misses + 1

    def test_concurrent_access_is_lock_safe(self):
        import threading

        cache = WindowCache(max_entries=4)
        grids = [default_angle_grid(res) for res in (0.5, 1.0, 1.5, 2.0, 3.0, 4.5)]
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    grid = grids[int(rng.integers(len(grids)))]
                    window = cache.get(grid, 15.0,
                                       lambda grid=grid: geometry_window(grid))
                    assert window.shape == grid.shape
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_default_cache_shared_by_weighting(self):
        default_window_cache().clear()
        angles = default_angle_grid(0.75)
        before = default_window_cache().stats.lookups
        cached_geometry_window(angles)
        cached_geometry_window(angles.copy())
        stats = default_window_cache().stats
        assert stats.lookups >= before + 2
        assert stats.hits >= 1


class TestSymmetryResolver:
    def _capture(self, azimuth_deg, snr_db=30.0, seed=0):
        array = DeployedArray(ArrayGeometry.linear_with_symmetry_antenna(8))
        channel = MultipathChannel.from_bearings([azimuth_deg], [1.0])
        synthesizer = DiversitySynthesizer(array, list(range(8)), [8])
        snapshots = synthesizer.capture(channel, num_snapshots=10, snr_db=snr_db,
                                        rng=np.random.default_rng(seed))
        return array, snapshots

    def _side_powers(self, azimuth):
        """Upper/lower side powers of one capture, weighted by its
        mirrored spectrum."""
        array, snapshots = self._capture(azimuth)
        resolver = SymmetryResolver(array.geometry, array.wavelength_m)
        spectrum = _gaussian([azimuth, 360.0 - azimuth], [1.0, 1.0])
        upper, lower = resolver.side_powers_stack(
            snapshots.samples[None], spectrum.power[None], spectrum.angles_deg)
        return float(upper[0]), float(lower[0])

    def test_linear_geometry_rejected(self):
        with pytest.raises(EstimationError):
            SymmetryResolver(ArrayGeometry.uniform_linear(8), 0.1249)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=25.0, max_value=155.0))
    def test_upper_half_sources_keep_upper_half(self, azimuth):
        upper, lower = self._side_powers(azimuth)
        assert upper > lower

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=205.0, max_value=335.0))
    def test_lower_half_sources_keep_lower_half(self, azimuth):
        upper, lower = self._side_powers(azimuth)
        assert lower > upper

    def test_side_powers_stack_decisions_match_serial(self):
        # A stack of four frames may round differently from one frame at a
        # time in the last bits; the side decision must not change.
        rng = np.random.default_rng(61)
        azimuths = [40.0, 300.0, 120.0, 250.0]
        captures = [self._capture(azimuth, seed=seed)
                    for seed, azimuth in enumerate(azimuths)]
        array = captures[0][0]
        resolver = SymmetryResolver(array.geometry, array.wavelength_m)
        spectra = [_gaussian([azimuth, (360.0 - azimuth) % 360.0],
                             [1.0, float(rng.uniform(0.5, 1.0))])
                   for azimuth in azimuths]
        stack = np.stack([snapshots.samples for _, snapshots in captures])
        upper, lower = resolver.side_powers_stack(
            stack, np.stack([spectrum.power for spectrum in spectra]),
            spectra[0].angles_deg)
        for index, (spectrum, (_, snapshots)) in enumerate(
                zip(spectra, captures, strict=True)):
            serial = oracle.side_powers(resolver, snapshots.samples, spectrum)
            assert np.allclose((upper[index], lower[index]), serial,
                               rtol=1e-12, atol=0.0)
            assert (upper[index] >= lower[index]) == (serial[0] >= serial[1])

    def test_attenuation_keeps_residual(self):
        # The frontend scales the weaker half plane by
        # ``symmetry_attenuation``; 1.0 leaves both halves as they are.
        array, snapshots = self._capture(60.0)
        linear = list(range(8))
        kept, residual = (
            SpectrumComputer(SpectrumConfig(symmetry_attenuation=attenuation))
            .compute_with_symmetry(snapshots, array, linear)
            for attenuation in (1.0, 0.1))
        lower = kept.angles_deg >= 180.0
        assert np.array_equal(residual.power[~lower], kept.power[~lower])
        assert np.allclose(residual.power[lower], 0.1 * kept.power[lower],
                           rtol=1e-12, atol=0.0)


class TestMultipathSuppression:
    def test_grouping_by_time(self):
        spectra = [_gaussian([50], [1.0], timestamp_s=t)
                   for t in (0.0, 0.03, 0.06, 0.5, 0.52)]
        groups = group_spectra_by_time(spectra, window_s=0.1, max_group_size=3)
        assert [len(g) for g in groups] == [3, 2]

    def test_grouping_anchors_on_inter_frame_gap(self):
        # Frames at 0 / 60 / 120 ms: each gap is 60 ms < 100 ms, so all
        # three belong together.  Anchoring the window on the group's
        # *first* frame used to split the 120 ms frame away from its
        # natural 60 ms companion into a suppression-skipping singleton.
        spectra = [_gaussian([50], [1.0], timestamp_s=t)
                   for t in (0.0, 0.06, 0.12)]
        groups = group_spectra_by_time(spectra, window_s=0.1, max_group_size=3)
        assert [len(g) for g in groups] == [3]

    def test_grouping_explicit_span_cap(self):
        spectra = [_gaussian([50], [1.0], timestamp_s=t)
                   for t in (0.0, 0.06, 0.12)]
        groups = group_spectra_by_time(spectra, window_s=0.1,
                                       max_group_size=3, max_span_s=0.1)
        # The 120 ms frame would stretch the group span past the cap, so
        # it starts a new group even though its gap is inside the window.
        assert [len(g) for g in groups] == [2, 1]

    def test_grouping_on_supplied_timestamps(self):
        # Streaming sessions group on ingest-resolved times, which may
        # differ from the spectra's own (all-default 0.0) timestamps.
        spectra = [_gaussian([50], [1.0]) for _ in range(3)]
        groups = group_spectra_by_time(spectra, window_s=0.1,
                                       timestamps=(0.0, 0.02, 0.5))
        assert [len(g) for g in groups] == [2, 1]
        with pytest.raises(EstimationError, match="timestamps"):
            group_spectra_by_time(spectra, timestamps=(0.0, 0.02))

    def test_singleton_group_passes_through(self):
        spectrum = _gaussian([50, 120], [1.0, 0.8])
        assert MultipathSuppressor().suppress([spectrum]) is spectrum

    def test_unstable_peak_removed_stable_kept(self):
        primary = _gaussian([50, 120], [1.0, 0.8])
        companion = _gaussian([51, 150], [1.0, 0.8])  # reflection moved 30 degrees
        suppressed = MultipathSuppressor().suppress([primary, companion])
        assert suppressed.power_at_local(50.0)[0] == pytest.approx(
            primary.power_at_local(50.0)[0])
        assert suppressed.power_at_local(120.0)[0] < 0.1 * primary.power_at_local(120.0)[0]

    def test_both_peaks_stable_nothing_removed(self):
        primary = _gaussian([50, 120], [1.0, 0.8])
        companion = _gaussian([52, 118], [0.9, 0.9])
        suppressed = MultipathSuppressor().suppress([primary, companion])
        assert suppressed.power_at_local(120.0)[0] == pytest.approx(
            primary.power_at_local(120.0)[0])

    def test_three_frame_group_requires_agreement_in_all(self):
        primary = _gaussian([50, 120], [1.0, 0.8])
        second = _gaussian([50, 121], [1.0, 0.8])
        third = _gaussian([50, 170], [1.0, 0.8])
        suppressed = MultipathSuppressor().suppress([primary, second, third])
        # 120-degree peak matches the second frame but not the third: removed.
        assert suppressed.power_at_local(120.0)[0] < 0.1 * primary.power_at_local(120.0)[0]

    def test_process_returns_one_spectrum_per_group(self):
        spectra = [_gaussian([50, 120], [1.0, 0.8], timestamp_s=t)
                   for t in (0.0, 0.03, 1.0)]
        outputs = MultipathSuppressor().process(spectra)
        assert len(outputs) == 2

    def test_process_groups_on_supplied_timestamps(self):
        spectra = [_gaussian([50, 120], [1.0, 0.8]) for _ in range(3)]
        outputs = MultipathSuppressor().process(
            spectra, timestamps=(0.0, 0.03, 1.0))
        assert len(outputs) == 2

    def test_process_over_many_streams_groups_each_stream_on_its_own(self):
        # Frames of two streams 10 ms apart never share a group, and one
        # call over both equals one call per stream.
        first = [_gaussian([50, 120], [1.0, 0.8]),
                 _gaussian([51, 150], [1.0, 0.8])]
        second = [_gaussian([80, 200], [1.0, 0.9]),
                  _gaussian([80, 260], [1.0, 0.9]),
                  _gaussian([81, 200], [1.0, 0.9])]
        times = {"a": (0.0, 0.03), "b": (0.01, 0.04, 1.0)}
        suppressor = MultipathSuppressor()
        outputs = suppressor.process({"a": first, "b": second},
                                     timestamps=times)
        assert list(outputs) == ["a", "b"]
        for key, stream in (("a", first), ("b", second)):
            alone = suppressor.process(stream, timestamps=times[key])
            assert [spectrum.power.tobytes() for spectrum in outputs[key]] \
                == [spectrum.power.tobytes() for spectrum in alone]
        assert len(outputs["a"]) == 1 and len(outputs["b"]) == 2

    @pytest.mark.parametrize("kwargs", [
        {"residual_fraction": 1.5},
        {"tolerance_deg": -1.0},
        {"min_relative_height": -0.1},
        {"min_relative_height": 1.5},
        {"window_s": -0.1},
        {"max_group_size": 0},
        {"max_span_s": -1.0},
    ])
    def test_invalid_parameters(self, kwargs):
        # Bad values fail at construction/config-load time, not as a
        # confusing find_peaks error in the middle of a stream.
        with pytest.raises(EstimationError):
            MultipathSuppressor(**kwargs)
        with pytest.raises(EstimationError):
            MultipathSuppressor().suppress([])
