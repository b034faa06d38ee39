"""802.11 frame model: sizes, rates, air times and transmitted waveforms.

ArrayTrack only needs the preamble of a frame (Section 2.1), but the latency
analysis (Section 4.4) and the collision analysis (Section 4.3.5) depend on
whole-frame air times, so the frame model carries payload size and bitrate as
well.  Frame *content* is immaterial to the system -- acknowledgements and
encrypted frames work equally well -- so the payload is modelled as random
QPSK-like samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import PREAMBLE_DURATION_S, SAMPLE_RATE_HZ
from repro.errors import SignalError
from repro.signal.ofdm import generate_preamble
from repro.signal.waveform import Waveform

__all__ = ["Frame", "air_time_s", "VALID_80211G_RATES_MBPS"]

#: The 802.11g OFDM rate set plus the 802.11b base rates the paper quotes
#: (1 Mbit/s appears in the latency analysis).
VALID_80211G_RATES_MBPS = (1.0, 2.0, 5.5, 6.0, 9.0, 11.0, 12.0, 18.0, 24.0,
                           36.0, 48.0, 54.0)


def air_time_s(payload_bytes: int, bitrate_mbps: float,
               include_preamble: bool = True) -> float:
    """Return the on-air duration of a frame in seconds.

    Section 4.4 quotes roughly 222 us for a 1500-byte frame at 54 Mbit/s and
    12 ms at 1 Mbit/s; this helper reproduces those figures from payload
    size and bitrate plus the fixed 16 us preamble.
    """
    if payload_bytes <= 0:
        raise SignalError(f"payload must be positive, got {payload_bytes}")
    if bitrate_mbps <= 0:
        raise SignalError(f"bitrate must be positive, got {bitrate_mbps}")
    payload_s = payload_bytes * 8 / (bitrate_mbps * 1e6)
    return payload_s + (PREAMBLE_DURATION_S if include_preamble else 0.0)


@dataclass
class Frame:
    """A transmitted 802.11 frame.

    Attributes
    ----------
    client_id:
        Identifier of the transmitting client.
    timestamp_s:
        Transmission start time in seconds (used for grouping frames in the
        multipath suppression step, Section 2.4).
    payload_bytes:
        MPDU size in bytes.
    bitrate_mbps:
        Data rate used for the payload.
    transmit_power_dbm:
        Transmit power; the channel model converts this to received power.
    sequence_number:
        Monotonically increasing per-client counter.
    """

    client_id: str
    timestamp_s: float = 0.0
    payload_bytes: int = 1500
    bitrate_mbps: float = 54.0
    transmit_power_dbm: float = 15.0
    sequence_number: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise SignalError(
                f"payload_bytes must be positive, got {self.payload_bytes}")
        if self.bitrate_mbps <= 0:
            raise SignalError(
                f"bitrate_mbps must be positive, got {self.bitrate_mbps}")

    @property
    def air_time_s(self) -> float:
        """On-air duration of the whole frame, preamble included."""
        return air_time_s(self.payload_bytes, self.bitrate_mbps)

    def baseband_waveform(self, sample_rate_hz: float = SAMPLE_RATE_HZ,
                          include_payload: bool = False,
                          payload_samples: int = 256,
                          rng: np.random.Generator | None = None) -> Waveform:
        """Return the transmitted complex-baseband waveform of this frame.

        Parameters
        ----------
        sample_rate_hz:
            Output sample rate (integer multiple of 20 MHz).
        include_payload:
            When True, append ``payload_samples`` of random QPSK symbols
            after the preamble so collision experiments have a frame body
            to collide with.  ArrayTrack itself never looks at the body.
        payload_samples:
            Number of body samples to append when ``include_payload``.
        rng:
            Random generator for the synthetic payload.
        """
        preamble = generate_preamble(sample_rate_hz)
        if not include_payload:
            return preamble
        rng = rng if rng is not None else np.random.default_rng(self.sequence_number)
        constellation = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        body = rng.choice(constellation, size=payload_samples)
        return preamble.concatenate(Waveform(body, sample_rate_hz))
