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

from dataclasses import astuple, dataclass, field
from collections.abc import Hashable, Sequence

import numpy as np

from repro.constants import DEFAULT_NUM_SNAPSHOTS, WAVELENGTH_M
from repro.errors import ConfigurationError, EstimationError
from repro.array.calibration import PhaseCalibrator
from repro.array.deployment import DeployedArray
from repro.array.diversity import DiversitySynthesizer
from repro.array.geometry import ArrayGeometry
from repro.array.receiver import ArrayReceiver, SnapshotMatrix
from repro.ap.buffer import BufferEntry, CircularFrameBuffer
from repro.channel.paths import MultipathChannel
from repro.core.music import check_capon_traces, check_nonzero_traces
from repro.core.pipeline import SpectrumComputer, SpectrumConfig
from repro.core.spectrum import AoASpectrum
from repro.geometry.vector import Point2D

__all__ = ["APConfig", "ArrayTrackAP", "compute_spectra_across"]


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
        # Checked here so a row too short for its smoothing fails at load
        # rather than at the first frame.
        groups = self.spectrum.smoothing_groups
        size = self.num_antennas - groups + 1
        if size < 2:
            raise ConfigurationError(
                f"spectrum.smoothing_groups={groups} over num_antennas="
                f"{self.num_antennas} leaves only {size} virtual antennas; "
                f"need at least 2")


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
    def compute_spectrum(self, entry: BufferEntry) -> AoASpectrum:
        """Return the AoA spectrum for one buffered frame (a batch of one)."""
        return self.compute_spectra([entry])[0]

    def compute_spectra(self, entries: Sequence[BufferEntry]
                        ) -> list[AoASpectrum]:
        """Return the AoA spectra of many buffered frames in one batched pass.

        A one-AP call of :func:`compute_spectra_across`, the one Section
        2.3 frontend path: the whole batch costs one covariance/eigh/
        projection sweep per snapshot shape instead of one per frame.
        Results are returned in input order.
        """
        return compute_spectra_across([(self, entry) for entry in entries])

    def spectra_for_client(self, client_id: str) -> list[AoASpectrum]:
        """Return spectra for every buffered frame of ``client_id``.

        All of the client's buffered frames run through the batched
        frontend in one :meth:`compute_spectra` call.
        """
        return self.compute_spectra(self.buffer.entries_for_client(client_id))

    def screen_entries(self, entries: Sequence[BufferEntry]) -> None:
        """Raise for finite raw entries this AP's frontend cannot compute.

        The checks that let a service buffer raw frames and compute their
        spectra later without a failing pass: every snapshot matrix has
        one row per array element and at least one snapshot, every
        frame's linear rows carry non-zero sample energy (samples whose
        squares underflow count as zero: their spectrum would be all zero
        or arbitrary), and under the Capon estimator every frame's
        covariance trace is large enough for its diagonal loading
        (:func:`~repro.core.music.check_capon_traces`).  That trace is at
        least the linear rows' sample energy over ``linear antennas x
        snapshots``: spatial smoothing averages at most that many
        sub-arrays, which together cover every linear row.

        Raises
        ------
        EstimationError
            Naming the first misshapen entry in input order, or every
            frame with zero energy, or every frame the Capon estimator
            would refuse.
        """
        rows = self.array.num_elements
        for entry in entries:
            shape = entry.snapshots.samples.shape
            if shape[0] != rows or shape[1] < 1:
                raise EstimationError(
                    f"raw frame from client {entry.client_id!r} has a "
                    f"{shape} snapshot matrix; AP {self.ap_id!r} needs "
                    f"{rows} rows and at least one snapshot")
        linear = self.linear_indices
        energies = [np.vdot(samples, samples).real / samples.size
                    for samples in (entry.snapshots.samples[linear]
                                    for entry in entries)]
        method = self._spectrum_computer.config.method
        if method == "capon":
            check_capon_traces(energies, len(linear))
        else:
            check_nonzero_traces(energies, method)

    def _frontend_key(self) -> Hashable:
        """What decides this AP's frontend numerics, apart from snapshot shape.

        APs with equal keys can share one stacked pass: array geometry,
        wavelength, linear and full rows (both follow from the config's
        antenna count and symmetry flag) and the spectrum configuration.
        """
        positions = self.array.geometry.element_positions
        return (positions.shape, positions.tobytes(), self.array.wavelength_m,
                self.config.num_antennas, self.config.use_symmetry_antenna,
                astuple(self._spectrum_computer.config))

    def _calibrated_stack(self, entries: Sequence[BufferEntry]) -> np.ndarray:
        """Stack the entries' samples and compensate the phase offsets.

        All frames' offsets are compensated in one broadcast multiply,
        elementwise identical to the per-frame :meth:`_compensate`.
        """
        stack = np.stack([entry.snapshots.samples for entry in entries])
        if not self.config.apply_phase_offsets:
            return stack
        correction = np.exp(-1j * self._calibration_offsets)[:, None]
        return stack * correction[None, :, :]

    def clear(self) -> None:
        """Drop all buffered frames (between experiment runs)."""
        self.buffer.clear()


def compute_spectra_across(frames: Sequence[tuple[ArrayTrackAP, BufferEntry]]
                           ) -> list[AoASpectrum]:
    """Return the AoA spectra of raw frames from any APs, in input order.

    The Section 2.3 frontend, batched across APs: frames are grouped by
    their AP's frontend key (array geometry, wavelength, linear and full
    rows, spectrum configuration) and snapshot shape, and each group runs
    one stacked pass.  Every AP's frames are phase-calibrated with its own
    offsets before the group is concatenated, and each spectrum carries
    its own AP's position and orientation.  Each frame's spectrum is the
    one a batch of one would give, bit for bit, so how frames are batched
    never shows in the output.

    Parameters
    ----------
    frames:
        ``(ap, entry)`` pairs: a raw buffer entry and the AP that captured
        it.
    """
    frames = list(frames)
    keys: dict[ArrayTrackAP, Hashable] = {}
    groups: dict[tuple, dict[ArrayTrackAP, list[int]]] = {}
    for index, (ap, entry) in enumerate(frames):
        if ap not in keys:
            keys[ap] = ap._frontend_key()
        groups.setdefault((keys[ap], entry.snapshots.samples.shape), {}) \
            .setdefault(ap, []).append(index)
    spectra: list[AoASpectrum | None] = [None] * len(frames)
    for group in groups.values():
        order = [index for indices in group.values() for index in indices]
        parts = [ap._calibrated_stack([frames[index][1] for index in indices])
                 for ap, indices in group.items()]
        stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
        metadata = [frames[index][1].snapshots for index in order]
        arrays = [frames[index][0].array for index in order]
        ap = next(iter(group))
        computer = ap._spectrum_computer
        if ap.config.use_symmetry_antenna:
            outputs = computer.compute_many_with_symmetry_stacked(
                stack, metadata, ap.array, ap.linear_indices,
                frame_arrays=arrays)
        else:
            outputs = computer.compute_many_stacked(
                stack, metadata, ap.array, ap.linear_indices,
                frame_arrays=arrays)
        for index, spectrum in zip(order, outputs, strict=True):
            spectra[index] = spectrum
    return spectra  # type: ignore[return-value]
