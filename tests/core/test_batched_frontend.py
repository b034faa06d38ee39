"""Tests for the batched Section 2.3 frontend (SpectrumComputer.compute_many).

House rule for every vectorized path in this repo: the batched frontend must
be *bit-for-bit* identical to the serial per-frame reference in
``tests/core/_oracle.py``, across every estimator method, smoothing setting,
forward-backward averaging, forced and automatic source counts, and with
symmetry removal on or off.  These tests randomize the capture conditions
and assert exact array equality.
"""

import numpy as np
import pytest

from repro.ap import APConfig, ArrayTrackAP
from repro.channel import MultipathChannel
from repro.core import SpectrumComputer, SpectrumConfig
from repro.errors import EstimationError
from repro.geometry import Point2D

from tests.core._oracle import (
    reference_ap_spectrum,
    reference_spectrum,
    reference_spectrum_with_symmetry,
)


def _ap(spectrum_config, use_symmetry=False, num_antennas=8, seed=3,
        apply_phase_offsets=False, buffer_capacity=64):
    return ArrayTrackAP(
        "ap-1", Point2D(0.0, 0.0), orientation_deg=30.0,
        config=APConfig(spectrum=spectrum_config,
                        num_antennas=num_antennas,
                        use_symmetry_antenna=use_symmetry,
                        apply_phase_offsets=apply_phase_offsets,
                        buffer_capacity=buffer_capacity),
        rng=np.random.default_rng(seed))


def _capture_frames(ap, num_frames, rng, client_id="client", snr_db=18.0,
                    num_snapshots=None):
    """Capture randomized two-path frames and return the buffer entries."""
    entries = []
    for index in range(num_frames):
        bearings = [float(rng.uniform(10.0, 170.0)),
                    float(rng.uniform(10.0, 350.0))]
        gains = [1.0,
                 float(rng.uniform(0.2, 0.9)) * np.exp(1j * rng.uniform(0, 6))]
        channel = MultipathChannel.from_bearings(bearings, gains,
                                                 client_id=client_id)
        entries.append(ap.overhear(channel, timestamp_s=0.01 * index,
                                   snr_db=snr_db, rng=rng,
                                   num_snapshots=num_snapshots))
    return entries


def _assert_spectra_equal(serial, batched):
    assert len(serial) == len(batched)
    for reference, candidate in zip(serial, batched, strict=True):
        assert np.array_equal(reference.angles_deg, candidate.angles_deg)
        assert np.array_equal(reference.power, candidate.power)
        assert reference.client_id == candidate.client_id
        assert reference.ap_id == candidate.ap_id
        assert reference.timestamp_s == candidate.timestamp_s
        assert reference.ap_orientation_deg == candidate.ap_orientation_deg


class TestComputeManyEquality:
    """compute_many == the per-frame reference, bitwise, over the configs."""

    @pytest.mark.parametrize("method", ["music", "bartlett", "capon"])
    @pytest.mark.parametrize("smoothing_groups", [1, 2])
    def test_methods_and_smoothing(self, method, smoothing_groups):
        config = SpectrumConfig(method=method, smoothing_groups=smoothing_groups,
                                angle_resolution_deg=1.0)
        ap = _ap(config)
        rng = np.random.default_rng(17)
        entries = _capture_frames(ap, 7, rng)
        computer = ap._spectrum_computer
        snapshots = [entry.snapshots for entry in entries]
        serial = [reference_spectrum(config, item, ap.array,
                                     ap.linear_indices)
                  for item in snapshots]
        batched = computer.compute_many(snapshots, ap.array, ap.linear_indices)
        _assert_spectra_equal(serial, batched)

    @pytest.mark.parametrize("forward_backward", [False, True])
    @pytest.mark.parametrize("num_sources", [None, 1, 3, 7])
    def test_forward_backward_and_source_counts(self, forward_backward,
                                                num_sources):
        config = SpectrumConfig(smoothing_groups=2,
                                forward_backward=forward_backward,
                                num_sources=num_sources,
                                angle_resolution_deg=1.0)
        ap = _ap(config)
        rng = np.random.default_rng(23)
        entries = _capture_frames(ap, 6, rng)
        computer = ap._spectrum_computer
        snapshots = [entry.snapshots for entry in entries]
        serial = [reference_spectrum(config, item, ap.array,
                                     ap.linear_indices)
                  for item in snapshots]
        batched = computer.compute_many(snapshots, ap.array, ap.linear_indices)
        _assert_spectra_equal(serial, batched)

    @pytest.mark.parametrize("apply_weighting", [False, True])
    def test_weighting_toggle(self, apply_weighting):
        config = SpectrumConfig(apply_weighting=apply_weighting,
                                angle_resolution_deg=1.0)
        ap = _ap(config)
        rng = np.random.default_rng(5)
        snapshots = [entry.snapshots
                     for entry in _capture_frames(ap, 5, rng)]
        computer = ap._spectrum_computer
        serial = [reference_spectrum(config, item, ap.array,
                                     ap.linear_indices)
                  for item in snapshots]
        batched = computer.compute_many(snapshots, ap.array, ap.linear_indices)
        _assert_spectra_equal(serial, batched)

    def test_fractional_resolution_0_3(self):
        # The 0.3-degree grid is the float-accumulation stress case of
        # the mirror seam; the batched grid must still match the serial
        # one bitwise.
        config = SpectrumConfig(angle_resolution_deg=0.3)
        ap = _ap(config)
        rng = np.random.default_rng(31)
        snapshots = [entry.snapshots for entry in _capture_frames(ap, 3, rng)]
        computer = ap._spectrum_computer
        serial = [reference_spectrum(config, item, ap.array,
                                     ap.linear_indices)
                  for item in snapshots]
        batched = computer.compute_many(snapshots, ap.array, ap.linear_indices)
        _assert_spectra_equal(serial, batched)

    def test_low_snr_noise_dominated_frames(self):
        # Noise-dominated captures exercise the automatic source-count rule
        # away from the easy D = 1 regime (frames land in different D
        # groups within one batch).
        config = SpectrumConfig(angle_resolution_deg=1.0)
        ap = _ap(config)
        rng = np.random.default_rng(41)
        snapshots = [entry.snapshots
                     for entry in _capture_frames(ap, 10, rng, snr_db=-3.0)]
        computer = ap._spectrum_computer
        serial = [reference_spectrum(config, item, ap.array,
                                     ap.linear_indices)
                  for item in snapshots]
        batched = computer.compute_many(snapshots, ap.array, ap.linear_indices)
        _assert_spectra_equal(serial, batched)


class TestComputeManyWithSymmetry:
    @pytest.mark.parametrize("method", ["music", "bartlett"])
    def test_symmetry_resolution_matches_serial(self, method):
        config = SpectrumConfig(method=method, angle_resolution_deg=1.0)
        ap = _ap(config, use_symmetry=True)
        rng = np.random.default_rng(13)
        snapshots = [entry.snapshots for entry in _capture_frames(ap, 6, rng)]
        computer = ap._spectrum_computer
        serial = [reference_spectrum_with_symmetry(config, item, ap.array,
                                                   ap.linear_indices)
                  for item in snapshots]
        batched = computer.compute_many_with_symmetry(snapshots, ap.array,
                                                      ap.linear_indices)
        _assert_spectra_equal(serial, batched)

    def test_symmetry_with_calibrated_phase_offsets(self):
        config = SpectrumConfig(angle_resolution_deg=1.0)
        ap = _ap(config, use_symmetry=True, apply_phase_offsets=True, seed=29)
        rng = np.random.default_rng(29)
        entries = _capture_frames(ap, 5, rng)
        serial = [reference_ap_spectrum(ap, entry) for entry in entries]
        batched = ap.compute_spectra(entries)
        _assert_spectra_equal(serial, batched)


class TestSingleFrameEntryPoints:
    """The single-frame calls are batches of one; they match the reference."""

    @pytest.mark.parametrize("apply_phase_offsets", [False, True])
    def test_compute_and_compute_spectrum(self, apply_phase_offsets):
        config = SpectrumConfig(angle_resolution_deg=1.0)
        ap = _ap(config, apply_phase_offsets=apply_phase_offsets, seed=61)
        rng = np.random.default_rng(61)
        entries = _capture_frames(ap, 3, rng)
        computer = ap._spectrum_computer
        _assert_spectra_equal(
            [reference_spectrum(config, entry.snapshots, ap.array,
                                ap.linear_indices) for entry in entries],
            [computer.compute(entry.snapshots, ap.array, ap.linear_indices)
             for entry in entries])
        _assert_spectra_equal(
            [reference_ap_spectrum(ap, entry) for entry in entries],
            [ap.compute_spectrum(entry) for entry in entries])

    @pytest.mark.parametrize("apply_phase_offsets", [False, True])
    def test_compute_with_symmetry_and_compute_spectrum(
            self, apply_phase_offsets):
        config = SpectrumConfig(angle_resolution_deg=1.0)
        ap = _ap(config, use_symmetry=True,
                 apply_phase_offsets=apply_phase_offsets, seed=67)
        rng = np.random.default_rng(67)
        entries = _capture_frames(ap, 3, rng)
        computer = ap._spectrum_computer
        _assert_spectra_equal(
            [reference_spectrum_with_symmetry(config, entry.snapshots,
                                              ap.array, ap.linear_indices)
             for entry in entries],
            [computer.compute_with_symmetry(entry.snapshots, ap.array,
                                            ap.linear_indices)
             for entry in entries])
        _assert_spectra_equal(
            [reference_ap_spectrum(ap, entry) for entry in entries],
            [ap.compute_spectrum(entry) for entry in entries])


class TestBatchValidation:
    def test_empty_batch(self):
        computer = SpectrumComputer(SpectrumConfig(angle_resolution_deg=1.0))
        ap = _ap(SpectrumConfig(angle_resolution_deg=1.0))
        assert computer.compute_many([], ap.array) == []
        assert computer.compute_many_with_symmetry([], ap.array, [0, 1]) == []

    def test_mixed_shapes_rejected(self):
        config = SpectrumConfig(angle_resolution_deg=1.0)
        ap = _ap(config)
        rng = np.random.default_rng(11)
        short = _capture_frames(ap, 1, rng, num_snapshots=5)
        long = _capture_frames(ap, 1, rng, num_snapshots=10)
        computer = ap._spectrum_computer
        with pytest.raises(EstimationError):
            computer.compute_many(
                [entry.snapshots for entry in short + long],
                ap.array, ap.linear_indices)

    def test_non_linear_selection_rejected(self):
        ap = _ap(SpectrumConfig(angle_resolution_deg=1.0), use_symmetry=True)
        rng = np.random.default_rng(19)
        snapshots = [entry.snapshots for entry in _capture_frames(ap, 2, rng)]
        with pytest.raises(EstimationError):
            # Rows 0..8 include the off-row symmetry antenna.
            ap._spectrum_computer.compute_many(snapshots, ap.array, None)


class TestAccessPointBatching:
    def test_compute_spectra_matches_reference(self):
        ap = _ap(SpectrumConfig(angle_resolution_deg=1.0), use_symmetry=True)
        rng = np.random.default_rng(37)
        entries = _capture_frames(ap, 6, rng)
        serial = [reference_ap_spectrum(ap, entry) for entry in entries]
        _assert_spectra_equal(serial, ap.compute_spectra(entries))
        assert ap.compute_spectra([]) == []

    def test_compute_spectra_groups_mixed_snapshot_shapes(self):
        # A Figure 19-style buffer holding captures of different sample
        # counts: the batch groups by shape and returns input order.
        ap = _ap(SpectrumConfig(angle_resolution_deg=1.0))
        rng = np.random.default_rng(43)
        entries = []
        for count in (10, 4, 10, 4, 7):
            entries.extend(_capture_frames(ap, 1, rng, num_snapshots=count))
        serial = [reference_ap_spectrum(ap, entry) for entry in entries]
        _assert_spectra_equal(serial, ap.compute_spectra(entries))

    def test_spectra_for_client_uses_batched_path(self):
        ap = _ap(SpectrumConfig(angle_resolution_deg=1.0), use_symmetry=True)
        rng = np.random.default_rng(47)
        _capture_frames(ap, 4, rng, client_id="alice")
        _capture_frames(ap, 3, rng, client_id="bob")
        serial = [reference_ap_spectrum(ap, entry)
                  for entry in ap.buffer.entries_for_client("alice")]
        _assert_spectra_equal(serial, ap.spectra_for_client("alice"))

    def test_spectra_for_clients_splits_one_batch_per_client(self):
        ap = _ap(SpectrumConfig(angle_resolution_deg=1.0))
        rng = np.random.default_rng(53)
        _capture_frames(ap, 3, rng, client_id="alice")
        _capture_frames(ap, 2, rng, client_id="bob")
        result = ap.spectra_for_clients(["alice", "bob", "ghost"])
        assert sorted(result) == ["alice", "bob"]
        assert len(result["alice"]) == 3
        assert len(result["bob"]) == 2
        for client_id in ("alice", "bob"):
            serial = [reference_ap_spectrum(ap, entry)
                      for entry in ap.buffer.entries_for_client(client_id)]
            _assert_spectra_equal(serial, result[client_id])
            for spectrum in result[client_id]:
                assert spectrum.client_id == client_id
