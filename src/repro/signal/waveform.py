"""Complex-baseband waveform container and basic sample manipulation.

ArrayTrack operates directly on raw time-domain I/Q samples captured at the
AP (Section 2.1), so the signal substrate is sample-oriented: a
:class:`Waveform` is a numpy array of complex samples tagged with its sample
rate, plus the handful of operations the rest of the system needs (slicing
by time, concatenation, power measurement, upsampling by integer factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.errors import SignalError

__all__ = ["Waveform"]


@dataclass
class Waveform:
    """A complex-baseband sample stream.

    Attributes
    ----------
    samples:
        One-dimensional complex numpy array of I/Q samples.
    sample_rate_hz:
        Sampling rate in samples per second.
    """

    samples: np.ndarray
    sample_rate_hz: float = SAMPLE_RATE_HZ

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise SignalError(
                f"waveform samples must be one-dimensional, got shape {samples.shape}")
        if self.sample_rate_hz <= 0:
            raise SignalError(
                f"sample rate must be positive, got {self.sample_rate_hz!r}")
        self.samples = samples

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        """Duration of the waveform in seconds."""
        return len(self.samples) / self.sample_rate_hz

    def power(self) -> float:
        """Return the mean sample power ``E[|x|^2]`` (0.0 for an empty waveform)."""
        if len(self.samples) == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def energy(self) -> float:
        """Return the total sample energy ``sum |x|^2``."""
        return float(np.sum(np.abs(self.samples) ** 2))

    def rms(self) -> float:
        """Return the root-mean-square amplitude of the waveform."""
        return float(np.sqrt(self.power()))

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def scaled(self, factor: complex) -> "Waveform":
        """Return a copy scaled by the complex factor ``factor``."""
        return Waveform(self.samples * factor, self.sample_rate_hz)

    def delayed(self, num_samples: int) -> "Waveform":
        """Return a copy delayed by ``num_samples`` (zero padded at the front)."""
        if num_samples < 0:
            raise SignalError(f"delay must be non-negative, got {num_samples}")
        padded = np.concatenate([np.zeros(num_samples, dtype=self.samples.dtype),
                                 self.samples])
        return Waveform(padded, self.sample_rate_hz)

    def slice_time(self, start_s: float, stop_s: float) -> "Waveform":
        """Return the samples between ``start_s`` and ``stop_s`` (seconds)."""
        if stop_s < start_s:
            raise SignalError("slice_time requires stop_s >= start_s")
        start = int(round(start_s * self.sample_rate_hz))
        stop = int(round(stop_s * self.sample_rate_hz))
        start = max(0, start)
        stop = min(len(self.samples), stop)
        return Waveform(self.samples[start:stop].copy(), self.sample_rate_hz)

    def concatenate(self, other: "Waveform") -> "Waveform":
        """Return this waveform followed by ``other`` (sample rates must match)."""
        if abs(other.sample_rate_hz - self.sample_rate_hz) > 1e-6:
            raise SignalError(
                "cannot concatenate waveforms with different sample rates: "
                f"{self.sample_rate_hz} vs {other.sample_rate_hz}")
        return Waveform(np.concatenate([self.samples, other.samples]),
                        self.sample_rate_hz)

    def repeated(self, times: int) -> "Waveform":
        """Return the waveform tiled ``times`` times back to back."""
        if times < 1:
            raise SignalError(f"repetition count must be >= 1, got {times}")
        return Waveform(np.tile(self.samples, times), self.sample_rate_hz)

    def upsampled(self, factor: int) -> "Waveform":
        """Return the waveform upsampled by an integer ``factor``.

        Sample-and-hold interpolation is used; for the preamble-detection
        purposes of this library the exact interpolation kernel is
        irrelevant (the detector correlates against the identically
        upsampled template).
        """
        if factor < 1:
            raise SignalError(f"upsampling factor must be >= 1, got {factor}")
        if factor == 1:
            return Waveform(self.samples.copy(), self.sample_rate_hz)
        samples = np.repeat(self.samples, factor)
        return Waveform(samples, self.sample_rate_hz * factor)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(num_samples: int, sample_rate_hz: float = SAMPLE_RATE_HZ) -> "Waveform":
        """Return an all-zero waveform of ``num_samples`` samples."""
        if num_samples < 0:
            raise SignalError(f"num_samples must be non-negative, got {num_samples}")
        # dtype-pinned: complex128 -- synthesized reference waveforms are full precision
        return Waveform(np.zeros(num_samples, dtype=np.complex128), sample_rate_hz)

    @staticmethod
    def continuous_wave(frequency_hz: float, duration_s: float,
                        sample_rate_hz: float = SAMPLE_RATE_HZ,
                        amplitude: float = 1.0) -> "Waveform":
        """Return a complex exponential tone (used by the calibration source).

        The paper calibrates its array with a USRP2 generating a continuous
        wave tone (Section 3); this constructor provides the equivalent
        stimulus for the simulated calibration procedure.
        """
        if duration_s <= 0:
            raise SignalError(f"duration must be positive, got {duration_s}")
        num = int(round(duration_s * sample_rate_hz))
        t = np.arange(num) / sample_rate_hz
        samples = amplitude * np.exp(2j * np.pi * frequency_hz * t)
        return Waveform(samples, sample_rate_hz)
