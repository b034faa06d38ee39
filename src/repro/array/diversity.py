"""Diversity synthesis: combine antenna sets captured on different symbols.

Section 2.2 of the paper: commodity APs pair each radio with two antennas and
a diversity switch.  ArrayTrack records the first long training symbol (S0)
on the *upper* antenna set, toggles the antenna-select line, and records the
second long training symbol (S1) on the *lower* set.  Because the two long
training symbols are identical and both fall well within the channel
coherence time, the two recordings can be treated as if all antennas had been
sampled simultaneously -- doubling the effective array size without extra
radios.  The hardware imposes a 500 ns switching dead time during which
samples are unusable.

The same mechanism provides the ninth antenna used for array-symmetry
removal (Section 2.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.constants import (
    ANTENNA_SWITCH_DEAD_TIME_S,
    DEFAULT_NUM_SNAPSHOTS,
    LONG_TRAINING_SYMBOL_DURATION_S,
    SAMPLE_RATE_HZ,
)
from repro.errors import ArrayError
from repro.array.deployment import DeployedArray
from repro.array.receiver import ArrayReceiver, SnapshotMatrix
from repro.channel.paths import MultipathChannel

__all__ = ["DiversitySynthesizer", "usable_snapshots_per_symbol"]


def usable_snapshots_per_symbol(
        sample_rate_hz: float = SAMPLE_RATE_HZ,
        symbol_duration_s: float = LONG_TRAINING_SYMBOL_DURATION_S,
        switch_dead_time_s: float = ANTENNA_SWITCH_DEAD_TIME_S) -> int:
    """Return how many clean samples one long training symbol yields.

    The switching dead time (500 ns on the WARP platform) is subtracted from
    the 3.2 us symbol; at 40 Msps that still leaves over a hundred samples,
    far more than the ten ArrayTrack needs.
    """
    usable_time = symbol_duration_s - switch_dead_time_s
    if usable_time <= 0:
        raise ArrayError(
            "switching dead time exceeds the training symbol duration")
    return int(usable_time * sample_rate_hz)


@dataclass
class DiversitySynthesizer:
    """Synthesizes a larger virtual array from two switched antenna sets.

    Parameters
    ----------
    array:
        The *full* deployed array covering every physical antenna reachable
        through the diversity switches (e.g. the 16-antenna rectangular
        layout, or 8 + 1 for symmetry removal).
    primary_indices:
        Antenna indices recorded during the first long training symbol.
    secondary_indices:
        Antenna indices recorded during the second long training symbol.
        May overlap with ``primary_indices`` (an antenna wired to both
        switch positions) but the union must cover distinct rows of the
        output snapshot matrix.
    """

    array: DeployedArray
    primary_indices: Sequence[int]
    secondary_indices: Sequence[int]

    def __post_init__(self) -> None:
        primary = list(self.primary_indices)
        secondary = list(self.secondary_indices)
        if not primary or not secondary:
            raise ArrayError("both antenna sets must be non-empty")
        all_indices = primary + secondary
        if max(all_indices) >= self.array.num_elements or min(all_indices) < 0:
            raise ArrayError(
                "antenna indices out of range for an array with "
                f"{self.array.num_elements} elements")
        if set(primary) & set(secondary):
            raise ArrayError(
                "primary and secondary antenna sets must not overlap; each "
                "switch position connects a different antenna")
        self.primary_indices = primary
        self.secondary_indices = secondary

    def capture(self, channel: MultipathChannel,
                num_snapshots: int = DEFAULT_NUM_SNAPSHOTS,
                snr_db: float = 25.0,
                rng: np.random.Generator | None = None,
                timestamp_s: float = 0.0,
                apply_phase_offsets: bool = True) -> SnapshotMatrix:
        """Capture a synthesized snapshot matrix over both antenna sets.

        The primary set's samples come from the first long training symbol
        and the secondary set's from the second; the transmitted samples of
        the two symbols are identical (they are the same OFDM symbol
        repeated), so the synthesis simply stacks the two captures.  Noise
        is drawn independently for the two symbols, exactly as in hardware.
        """
        max_per_symbol = usable_snapshots_per_symbol()
        if num_snapshots > max_per_symbol:
            raise ArrayError(
                f"cannot draw {num_snapshots} snapshots from one long training "
                f"symbol; at most {max_per_symbol} are usable after the "
                "switching dead time")
        rng = rng if rng is not None else np.random.default_rng()
        # Identical transmit samples for both long training symbols (S0 and S1
        # carry the same OFDM symbol); noise is drawn independently for the
        # two captures because they happen at different times.
        transmit_samples = ArrayReceiver._random_unit_power_samples(num_snapshots, rng)
        receiver = ArrayReceiver(self.array, apply_phase_offsets)
        first_symbol = receiver.capture(channel, num_snapshots, snr_db,
                                        transmit_samples, rng, timestamp_s)
        second_symbol = receiver.capture(channel, num_snapshots, snr_db,
                                         transmit_samples, rng, timestamp_s)
        samples = np.concatenate(
            [first_symbol.samples[list(self.primary_indices), :],
             second_symbol.samples[list(self.secondary_indices), :]], axis=0)
        return SnapshotMatrix(samples, snr_db=snr_db, client_id=channel.client_id,
                              ap_id=channel.ap_id, timestamp_s=timestamp_s)
