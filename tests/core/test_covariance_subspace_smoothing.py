"""Tests for covariance estimation, subspace splitting and spatial smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.array import ArrayGeometry, ArrayReceiver, DeployedArray
from repro.channel import MultipathChannel
from repro.core import (
    decompose,
    decompose_many,
    effective_antennas,
    estimate_num_sources_mdl,
    forward_backward_covariance,
    forward_backward_covariance_many,
    sample_covariance,
    sample_covariance_many,
    smooth_snapshots,
    smoothed_covariance,
    smoothed_covariance_many,
)
from repro.errors import EstimationError

from tests.core import _oracle as oracle


def _snapshots_for(bearings, amplitudes, num=200, snr_db=30.0, seed=0, antennas=8):
    geometry = ArrayGeometry.uniform_linear(antennas)
    array = DeployedArray(geometry)
    channel = MultipathChannel.from_bearings(bearings, amplitudes)
    receiver = ArrayReceiver(array, apply_phase_offsets=False)
    return receiver.capture(channel, num_snapshots=num, snr_db=snr_db,
                            rng=np.random.default_rng(seed)).samples


class TestSampleCovariance:
    def test_is_hermitian_and_psd(self, capture_snapshots):
        covariance = sample_covariance(capture_snapshots.samples)
        assert np.allclose(covariance, covariance.conj().T)
        eigenvalues = np.linalg.eigvalsh(covariance)
        assert np.all(eigenvalues > -1e-9)

    def test_shape_validation(self):
        with pytest.raises(EstimationError):
            sample_covariance(np.zeros(8))
        with pytest.raises(EstimationError):
            sample_covariance(np.zeros((8, 4)), diagonal_loading=-1.0)

    def test_diagonal_loading_raises_diagonal(self, capture_snapshots):
        plain = sample_covariance(capture_snapshots.samples)
        loaded = sample_covariance(capture_snapshots.samples, diagonal_loading=0.1)
        assert np.all(np.real(np.diag(loaded)) > np.real(np.diag(plain)))

    def test_forward_backward_is_persymmetric(self, capture_snapshots):
        covariance = forward_backward_covariance(capture_snapshots.samples)
        exchange = np.eye(covariance.shape[0])[::-1]
        assert np.allclose(covariance, exchange @ covariance.conj() @ exchange)


class TestSubspace:
    def test_single_source_gives_one_signal_eigenvalue(self):
        snapshots = _snapshots_for([50.0], [1.0])
        decomposition = decompose(sample_covariance(snapshots))
        assert decomposition.num_sources == 1
        # Largest eigenvalue well above the noise floor.
        assert decomposition.eigenvalues[0] > 10 * decomposition.eigenvalues[1]

    def test_two_incoherent_sources_detected(self):
        # Two sources with independent data: build by summing two captures.
        a = _snapshots_for([40.0], [1.0], seed=1)
        b = _snapshots_for([120.0], [1.0], seed=2)
        decomposition = decompose(sample_covariance(a + b))
        assert decomposition.num_sources == 2

    def test_forced_source_count_is_respected(self, capture_snapshots):
        decomposition = decompose(sample_covariance(capture_snapshots.samples),
                                  num_sources=3)
        assert decomposition.num_sources == 3
        assert decomposition.signal_subspace.shape == (8, 3)
        assert decomposition.noise_subspace.shape == (8, 5)

    def test_subspaces_are_orthogonal(self, capture_snapshots):
        decomposition = decompose(sample_covariance(capture_snapshots.samples))
        product = decomposition.signal_subspace.conj().T @ decomposition.noise_subspace
        assert np.allclose(product, 0.0, atol=1e-9)

    def test_eigenvalues_sorted_non_increasing(self, capture_snapshots):
        decomposition = decompose(sample_covariance(capture_snapshots.samples))
        assert np.all(np.diff(decomposition.eigenvalues) <= 1e-9)

    def test_at_least_one_noise_eigenvector_remains(self):
        snapshots = _snapshots_for([10.0, 60.0, 100.0, 140.0], [1, 1, 1, 1],
                                   antennas=4)
        decomposition = decompose(sample_covariance(snapshots))
        assert decomposition.num_sources <= 3

    def test_noise_power_estimate_close_to_truth(self):
        snapshots = _snapshots_for([50.0], [1.0], num=2000, snr_db=10.0)
        covariance = sample_covariance(snapshots)
        decomposition = decompose(covariance, num_sources=1)
        signal_power = np.real(np.trace(covariance)) / 8
        snr_estimate = 10 * np.log10(
            max(signal_power - decomposition.noise_power_estimate, 1e-12)
            / decomposition.noise_power_estimate)
        assert snr_estimate == pytest.approx(10.0, abs=1.5)

    def test_mdl_agrees_in_easy_conditions(self):
        a = _snapshots_for([40.0], [1.0], seed=3)
        b = _snapshots_for([120.0], [1.0], seed=4)
        covariance = sample_covariance(a + b)
        eigenvalues = np.linalg.eigvalsh(covariance)
        assert estimate_num_sources_mdl(eigenvalues, 200) == 2

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            decompose(np.zeros((3, 4)))
        with pytest.raises(EstimationError):
            decompose(np.eye(4), threshold_fraction=1.5)


class TestSpatialSmoothing:
    def test_effective_antennas(self):
        assert effective_antennas(8, 1) == 8
        assert effective_antennas(8, 3) == 6
        with pytest.raises(EstimationError):
            effective_antennas(4, 4)

    def test_single_group_equals_plain_covariance(self, capture_snapshots):
        plain = sample_covariance(capture_snapshots.samples)
        smoothed = smoothed_covariance(capture_snapshots.samples, 1)
        assert np.allclose(plain, smoothed)

    def test_smoothing_restores_rank_for_coherent_sources(self):
        """Coherent multipath makes Rxx rank-1; smoothing recovers rank 2."""
        snapshots = _snapshots_for([60.0, 120.0], [1.0, 0.8 * np.exp(0.5j)],
                                   num=100, snr_db=60.0)
        plain_eigenvalues = np.sort(np.linalg.eigvalsh(sample_covariance(snapshots)))[::-1]
        smoothed_eigenvalues = np.sort(np.linalg.eigvalsh(
            smoothed_covariance(snapshots, 3)))[::-1]
        # Without smoothing the second eigenvalue is essentially noise.
        assert plain_eigenvalues[1] / plain_eigenvalues[0] < 1e-3
        # With smoothing it becomes a clear signal eigenvalue.
        assert smoothed_eigenvalues[1] / smoothed_eigenvalues[0] > 1e-2

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_smoothed_covariance_shape(self, groups):
        snapshots = _snapshots_for([45.0], [1.0], num=20)
        expected = 8 - groups + 1
        covariance = smoothed_covariance(snapshots, groups)
        assert covariance.shape == (expected, expected)

    def test_signal_level_smoothing_shape(self):
        snapshots = _snapshots_for([45.0], [1.0], num=20)
        averaged = smooth_snapshots(snapshots, 3)
        assert averaged.shape == (6, 20)


def _snapshot_stack(num_frames=6, num=10, antennas=8, seed=11):
    """A stack of frames with varied bearings/coherence, one rng stream."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(num_frames):
        bearings = [float(rng.uniform(10.0, 170.0)),
                    float(rng.uniform(10.0, 170.0))]
        gains = [1.0, float(rng.uniform(0.3, 0.9)) * np.exp(1j * rng.uniform(0, 6))]
        frames.append(_snapshots_for(bearings, gains, num=num, snr_db=20.0,
                                     seed=int(rng.integers(1 << 30)),
                                     antennas=antennas))
    return np.stack(frames)


class TestStackedCovariance:
    """The *_many variants must match the serial oracle bit for bit per frame."""

    def test_sample_covariance_many_matches_serial_bitwise(self):
        stack = _snapshot_stack()
        batched = sample_covariance_many(stack)
        for frame in range(stack.shape[0]):
            assert np.array_equal(batched[frame],
                                  oracle.sample_covariance(stack[frame]))

    def test_sample_covariance_many_with_loading_matches_serial(self):
        stack = _snapshot_stack(num_frames=4)
        batched = sample_covariance_many(stack, diagonal_loading=0.05)
        for frame in range(stack.shape[0]):
            assert np.array_equal(
                batched[frame],
                oracle.sample_covariance(stack[frame], diagonal_loading=0.05))

    def test_forward_backward_many_matches_serial_bitwise(self):
        stack = _snapshot_stack(num_frames=4)
        batched = forward_backward_covariance_many(stack)
        for frame in range(stack.shape[0]):
            assert np.array_equal(
                batched[frame], oracle.forward_backward_covariance(stack[frame]))

    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("forward_backward", [False, True])
    def test_smoothed_covariance_many_matches_serial_bitwise(
            self, groups, forward_backward):
        stack = _snapshot_stack(num_frames=5)
        batched = smoothed_covariance_many(stack, groups,
                                           forward_backward=forward_backward)
        for frame in range(stack.shape[0]):
            assert np.array_equal(
                batched[frame],
                oracle.smoothed_covariance(stack[frame], groups,
                                           forward_backward=forward_backward))

    def test_stack_shape_validation(self):
        with pytest.raises(EstimationError):
            sample_covariance_many(np.zeros((8, 4)))
        with pytest.raises(EstimationError):
            smoothed_covariance_many(np.zeros((2, 8, 4)), 0)


class TestStackedDecompose:
    """decompose_many over an (F, M, M) eigh stack vs the serial oracle."""

    def _assert_frames_equal(self, batch, covariances, num_sources=None):
        for frame in range(covariances.shape[0]):
            forced = None
            if num_sources is not None:
                forced = num_sources if np.isscalar(num_sources) \
                    else num_sources[frame]
            serial = oracle.decompose(covariances[frame], num_sources=forced)
            stacked = batch.frame(frame)
            assert stacked.num_sources == serial.num_sources
            assert np.array_equal(stacked.eigenvalues, serial.eigenvalues)
            assert np.array_equal(stacked.eigenvectors, serial.eigenvectors)
            assert np.array_equal(stacked.noise_subspace, serial.noise_subspace)
            assert np.array_equal(stacked.signal_subspace, serial.signal_subspace)

    def test_matches_serial_bitwise(self):
        covariances = sample_covariance_many(_snapshot_stack())
        self._assert_frames_equal(decompose_many(covariances), covariances)

    def test_degenerate_frames_mixed_in_one_batch(self):
        # An all-zero covariance (D falls back to 1), a full-rank noise
        # frame pushing D to M - 1, and ordinary frames, all in one stack.
        stack = _snapshot_stack(num_frames=3, antennas=6)
        covariances = list(sample_covariance_many(stack))
        covariances.append(np.zeros((6, 6), dtype=np.complex128))
        covariances.append(np.eye(6, dtype=np.complex128))  # all equal -> D = M-1
        covariances = np.stack(covariances)
        batch = decompose_many(covariances)
        assert int(batch.num_sources[-2]) == 1      # all-zero frame
        assert int(batch.num_sources[-1]) == 5      # D capped at M - 1
        self._assert_frames_equal(batch, covariances)

    def test_forced_counts_scalar_and_per_frame(self):
        covariances = sample_covariance_many(_snapshot_stack(num_frames=4))
        self._assert_frames_equal(
            decompose_many(covariances, num_sources=3), covariances,
            num_sources=3)
        per_frame = [1, 3, 7, 2]   # 7 exceeds M - 1 and must clamp like serial
        self._assert_frames_equal(
            decompose_many(covariances, num_sources=per_frame), covariances,
            num_sources=per_frame)

    def test_noise_subspace_grouping_covers_every_frame(self):
        covariances = sample_covariance_many(_snapshot_stack(num_frames=8))
        batch = decompose_many(covariances)
        total = 0
        for count in np.unique(batch.num_sources):
            group = batch.noise_subspaces(int(count))
            assert group.shape[2] == batch.num_antennas - int(count)
            total += group.shape[0]
        assert total == len(batch)

    def test_stack_validation(self):
        with pytest.raises(EstimationError):
            decompose_many(np.zeros((2, 3, 4)))
        with pytest.raises(EstimationError):
            decompose_many(np.zeros((2, 4, 4)), threshold_fraction=1.5)
        with pytest.raises(EstimationError):
            decompose_many(np.zeros((2, 4, 4)), num_sources=[1, 2, 3])

    def test_empty_stack(self):
        batch = decompose_many(np.zeros((0, 4, 4)))
        assert len(batch) == 0
        assert batch.num_sources.shape == (0,)
