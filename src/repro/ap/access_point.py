"""The ArrayTrack access point: detection, buffering and spectrum generation.

An :class:`ArrayTrackAP` bundles everything Figure 1 places at the AP and the
front half of the server pipeline:

* a deployed antenna array (eight-antenna linear row, optionally with the
  ninth off-row antenna reached through diversity synthesis, Section 2.3.4);
* per-radio oscillator phase offsets and their calibration (Section 3);
* packet detection (Section 2.1) -- exercised at the waveform level by the
  robustness experiments, and skipped (perfect detection assumed) by the
  large localization sweeps where only the AoA math matters;
* a circular frame buffer (Section 2.1);
* per-frame AoA spectrum computation (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.constants import DEFAULT_NUM_SNAPSHOTS, WAVELENGTH_M
from repro.errors import ConfigurationError
from repro.array.calibration import PhaseCalibrator
from repro.array.deployment import DeployedArray
from repro.array.diversity import DiversitySynthesizer
from repro.array.geometry import ArrayGeometry
from repro.array.receiver import ArrayReceiver, SnapshotMatrix
from repro.ap.buffer import BufferEntry, CircularFrameBuffer
from repro.channel.paths import MultipathChannel
from repro.core.pipeline import SpectrumComputer, SpectrumConfig
from repro.core.spectrum import AoASpectrum
from repro.geometry.vector import Point2D

__all__ = ["APConfig", "ArrayTrackAP"]


@dataclass
class APConfig:
    """Configuration of one ArrayTrack access point.

    Attributes
    ----------
    num_antennas:
        Number of antennas in the linear row used for MUSIC (4, 6 or 8 in
        the Figure 16 sweep).
    use_symmetry_antenna:
        Include the ninth off-row antenna (via diversity synthesis) and use
        it to resolve the linear array's mirror ambiguity.
    snapshots_per_frame:
        Raw time samples recorded per frame (10 in the paper).
    snr_db:
        Nominal per-antenna capture SNR used when the caller does not
        specify one per frame.
    buffer_capacity:
        Circular buffer depth, in frames.
    spectrum:
        Per-frame spectrum pipeline configuration (smoothing, weighting...).
    apply_phase_offsets:
        Model uncalibrated radio phase offsets (and their calibration);
        turning this off yields an idealized AP for unit tests.
    """

    num_antennas: int = 8
    use_symmetry_antenna: bool = True
    snapshots_per_frame: int = DEFAULT_NUM_SNAPSHOTS
    snr_db: float = 25.0
    buffer_capacity: int = 64
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    apply_phase_offsets: bool = True

    def __post_init__(self) -> None:
        if self.num_antennas < 2:
            raise ConfigurationError("an AP needs at least two antennas")
        if self.snapshots_per_frame < 1:
            raise ConfigurationError("snapshots_per_frame must be >= 1")
        if self.buffer_capacity < 1:
            raise ConfigurationError("buffer_capacity must be >= 1")


class ArrayTrackAP:
    """A multi-antenna access point participating in ArrayTrack.

    Parameters
    ----------
    ap_id:
        Identifier used in spectra and reports ("1" .. "6" in Figure 12).
    position:
        AP position in building coordinates.
    orientation_deg:
        Orientation of the antenna row in the building frame.
    config:
        AP configuration (defaults follow the paper's prototype).
    rng:
        Random generator used for the radio phase offsets and captures.
    wavelength_m:
        Carrier wavelength.
    """

    def __init__(self, ap_id: str, position: Point2D, orientation_deg: float = 0.0,
                 config: APConfig | None = None,
                 rng: np.random.Generator | None = None,
                 wavelength_m: float = WAVELENGTH_M) -> None:
        self.ap_id = ap_id
        self.config = config if config is not None else APConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        geometry = self._build_geometry()
        phase_offsets = (DeployedArray.random_phase_offsets(geometry.num_elements,
                                                            self._rng)
                         if self.config.apply_phase_offsets
                         else np.zeros(geometry.num_elements))
        self.array = DeployedArray(
            geometry=geometry, position=position,
            orientation_deg=orientation_deg,
            phase_offsets_rad=phase_offsets, wavelength_m=wavelength_m)
        self.buffer = CircularFrameBuffer(self.config.buffer_capacity)
        self._spectrum_computer = SpectrumComputer(self.config.spectrum)
        self._calibration_offsets = np.zeros(geometry.num_elements)
        self._calibrated = not self.config.apply_phase_offsets
        if self.config.apply_phase_offsets:
            self.calibrate()
        self.warm_spectrum_caches()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_geometry(self) -> ArrayGeometry:
        if self.config.use_symmetry_antenna:
            return ArrayGeometry.linear_with_symmetry_antenna(self.config.num_antennas)
        return ArrayGeometry.uniform_linear(self.config.num_antennas)

    @property
    def linear_indices(self) -> list[int]:
        """Snapshot rows forming the uniform linear array."""
        return list(range(self.config.num_antennas))

    @property
    def position(self) -> Point2D:
        """AP position in building coordinates."""
        return self.array.position

    @property
    def is_calibrated(self) -> bool:
        """True once the phase calibration has been run (or is unnecessary)."""
        return self._calibrated

    # ------------------------------------------------------------------
    # Calibration (Section 3)
    # ------------------------------------------------------------------
    def calibrate(self, calibrator: PhaseCalibrator | None = None) -> np.ndarray:
        """Run the two-run phase calibration and store the estimated offsets.

        Returns the estimated per-radio offsets (relative to radio 0).
        """
        if calibrator is None:
            calibrator = PhaseCalibrator(self.array.num_elements, rng=self._rng)
        result = calibrator.calibrate(self.array)
        # Reference the estimate to radio 0, exactly like the measurement.
        estimate = result.internal_offsets_rad - result.internal_offsets_rad[0]
        self._calibration_offsets = estimate
        self._calibrated = True
        return estimate

    def _compensate(self, snapshots: SnapshotMatrix) -> SnapshotMatrix:
        """Subtract the calibrated phase offsets from the raw samples."""
        if not self.config.apply_phase_offsets:
            return snapshots
        correction = np.exp(-1j * self._calibration_offsets)[:, None]
        return SnapshotMatrix(snapshots.samples * correction,
                              snr_db=snapshots.snr_db,
                              client_id=snapshots.client_id,
                              ap_id=snapshots.ap_id,
                              timestamp_s=snapshots.timestamp_s)

    # ------------------------------------------------------------------
    # Frame capture (Sections 2.1-2.2)
    # ------------------------------------------------------------------
    def overhear(self, channel: MultipathChannel, timestamp_s: float = 0.0,
                 snr_db: float | None = None,
                 num_snapshots: int | None = None,
                 rng: np.random.Generator | None = None) -> BufferEntry:
        """Capture one frame arriving over ``channel`` and buffer its samples.

        The diversity synthesis mechanism records the linear row during the
        first long training symbol and the ninth antenna (when configured)
        during the second, yielding one snapshot matrix covering all
        antennas (Section 2.2).
        """
        snr = self.config.snr_db if snr_db is None else snr_db
        snapshots = self.config.snapshots_per_frame if num_snapshots is None \
            else num_snapshots
        rng = rng if rng is not None else self._rng
        channel = MultipathChannel(list(channel.components),
                                   client_id=channel.client_id or "",
                                   ap_id=self.ap_id)
        if self.config.use_symmetry_antenna:
            synthesizer = DiversitySynthesizer(
                self.array,
                primary_indices=self.linear_indices,
                secondary_indices=[self.config.num_antennas])
            capture = synthesizer.capture(channel, snapshots, snr, rng, timestamp_s,
                                          self.config.apply_phase_offsets)
        else:
            receiver = ArrayReceiver(self.array, self.config.apply_phase_offsets)
            capture = receiver.capture(channel, snapshots, snr,
                                       rng=rng, timestamp_s=timestamp_s)
        return self.buffer.push(capture, channel.client_id, timestamp_s)

    # ------------------------------------------------------------------
    # Spectrum computation (Section 2.3)
    # ------------------------------------------------------------------
    def warm_spectrum_caches(self) -> None:
        """Precompute the steering matrices this AP's spectra will use.

        The Equation 6 steering continuum depends only on the (static)
        antenna geometry, angle grid and carrier, so it is computed once and
        served from the shared :class:`~repro.core.cache.SteeringCache` for
        every subsequent frame.  Called at construction; a fleet of APs with
        identical :class:`APConfig` shares the same cache entries, so the
        per-AP cost after the first AP is a dictionary lookup.
        """
        full_indices = list(range(self.array.num_elements)) \
            if self.config.use_symmetry_antenna else None
        self._spectrum_computer.warm_caches(self.array, self.linear_indices,
                                            full_indices)

    def compute_spectrum(self, entry: BufferEntry) -> AoASpectrum:
        """Return the AoA spectrum for one buffered frame (a batch of one)."""
        return self.compute_spectra([entry])[0]

    def compute_spectra(self, entries: Sequence[BufferEntry]
                        ) -> list[AoASpectrum]:
        """Return the AoA spectra of many buffered frames in one batched pass.

        The AP-level entry point of the vectorized Section 2.3 frontend:
        the entries' calibrated snapshots enter
        :meth:`~repro.core.pipeline.SpectrumComputer.compute_many` (or its
        symmetry-resolving sibling) as one stack, so the whole batch costs
        one covariance/eigh/projection sweep instead of one per frame.
        Entries whose captures differ in snapshot shape (e.g. a Figure 19
        sample-count sweep left mixed frames in the buffer) are grouped by
        shape and batched per group.  Results are returned in input order.
        """
        entries = list(entries)
        if not entries:
            return []
        groups: dict[tuple[int, int], list[int]] = {}
        for index, entry in enumerate(entries):
            groups.setdefault(entry.snapshots.samples.shape, []).append(index)
        spectra: list[AoASpectrum | None] = [None] * len(entries)
        for indices in groups.values():
            stack = np.stack([entries[index].snapshots.samples
                              for index in indices])
            if self.config.apply_phase_offsets:
                # All frames' phase offsets compensated in one broadcast
                # multiply (elementwise identical to per-frame
                # ``_compensate``).
                correction = np.exp(-1j * self._calibration_offsets)[:, None]
                stack = stack * correction[None, :, :]
            metadata = [entries[index].snapshots for index in indices]
            if self.config.use_symmetry_antenna:
                outputs = self._spectrum_computer.compute_many_with_symmetry_stacked(
                    stack, metadata, self.array, self.linear_indices)
            else:
                outputs = self._spectrum_computer.compute_many_stacked(
                    stack, metadata, self.array, self.linear_indices)
            for index, spectrum in zip(indices, outputs, strict=True):
                spectra[index] = spectrum
        return spectra  # type: ignore[return-value]

    def spectra_for_client(self, client_id: str) -> list[AoASpectrum]:
        """Return spectra for every buffered frame of ``client_id``.

        All of the client's buffered frames run through the batched
        frontend in one :meth:`compute_spectra` call.
        """
        return self.compute_spectra(self.buffer.entries_for_client(client_id))

    def spectra_for_clients(self, client_ids: Sequence[str]
                            ) -> dict[str, list[AoASpectrum]]:
        """Return per-client spectra for every requested client's frames.

        All requested clients' buffered frames are stacked into *one*
        batched frontend pass (the per-AP collection step of
        :meth:`repro.server.backend.ArrayTrackServer.collect_buffered`),
        then split back per client.  Clients without buffered frames are
        omitted.
        """
        entries_by_client = {
            client_id: self.buffer.entries_for_client(client_id)
            for client_id in client_ids}
        flat = [entry for client_id in client_ids
                for entry in entries_by_client[client_id]]
        spectra = self.compute_spectra(flat)
        result: dict[str, list[AoASpectrum]] = {}
        cursor = 0
        for client_id in client_ids:
            count = len(entries_by_client[client_id])
            if count:
                result[client_id] = spectra[cursor:cursor + count]
            cursor += count
        return result

    def clear(self) -> None:
        """Drop all buffered frames (between experiment runs)."""
        self.buffer.clear()
