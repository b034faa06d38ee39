"""Physical and protocol constants used throughout the ArrayTrack reproduction.

All constants follow the paper's experimental setup: 802.11g operation in the
2.4 GHz ISM band, WARP radios sampling at 40 Msamples/s, and half-wavelength
antenna spacing (6.13 cm at 2.4 GHz).
"""

from __future__ import annotations

import math

#: Speed of light in vacuum (m/s).
SPEED_OF_LIGHT = 299_792_458.0

#: Carrier frequency used by the testbed clients (Hz).  The paper operates
#: Atheros 802.11g radios in the 2.4 GHz band; channel 6 centre frequency.
CARRIER_FREQUENCY_HZ = 2.437e9

#: RF wavelength at the carrier frequency (m); approximately 12.3 cm.
WAVELENGTH_M = SPEED_OF_LIGHT / CARRIER_FREQUENCY_HZ

#: Antenna element spacing used by the prototype AP (m).  The paper spaces
#: antennas at half a wavelength (quoted as 6.13 cm) for maximum AoA
#: resolution.
ANTENNA_SPACING_M = WAVELENGTH_M / 2.0

#: 802.11 OFDM nominal channel bandwidth (Hz).
OFDM_BANDWIDTH_HZ = 20e6

#: WARP receiver sampling rate (samples/s).  The paper samples at 40 Msps,
#: i.e. 2x oversampling of the 20 MHz OFDM signal.
SAMPLE_RATE_HZ = 40e6

#: Duration of one 802.11 short training symbol (s).
SHORT_TRAINING_SYMBOL_DURATION_S = 0.8e-6

#: Duration of one 802.11 long training symbol (s).
LONG_TRAINING_SYMBOL_DURATION_S = 3.2e-6

#: Duration of the guard interval between short and long training symbols (s).
GUARD_INTERVAL_DURATION_S = 0.8e-6

#: Number of short training symbol repetitions in the 802.11 OFDM preamble.
NUM_SHORT_TRAINING_SYMBOLS = 10

#: Number of long training symbol repetitions in the 802.11 OFDM preamble.
NUM_LONG_TRAINING_SYMBOLS = 2

#: Total 802.11 OFDM preamble duration (s): 8 us of STS + 1.6 us guard
#: (two 0.8 us halves) + 6.4 us of LTS = 16 us.
PREAMBLE_DURATION_S = 16e-6

#: Number of raw time-domain samples ArrayTrack uses per AoA spectrum.
#: Section 2.1 / 4.3.3: ten samples (250 ns at 40 Msps) suffice.
DEFAULT_NUM_SNAPSHOTS = 10

#: Antenna switching dead time of the WARP radio platform (s).  Section 2.2
#: footnote: the received signal is distorted for 500 ns after toggling
#: the antenna-select line.
ANTENNA_SWITCH_DEAD_TIME_S = 500e-9

#: Default number of spatial-smoothing sub-array groups (Section 2.3.2).
DEFAULT_SMOOTHING_GROUPS = 2

#: Grid resolution used by the location search (m); Section 2.5 uses a
#: 10 cm x 10 cm grid.
DEFAULT_GRID_RESOLUTION_M = 0.10

#: Default spectrum floor of :class:`~repro.core.localizer.LocalizerConfig`
#: (and so of the service's ``server.localizer`` section).  The floor clamps
#: each AP's normalized spectrum from below inside the Equation 8 product so
#: one blind AP cannot veto the true location.  The floor is not part of
#: the paper's Equation 8; every end-to-end campaign (quickstart, examples,
#: eval sweeps) runs at 0.05, and ``spectrum_floor=0`` reproduces the plain
#: Equation 8 product.
DEFAULT_SPECTRUM_FLOOR = 0.05

#: Maximum spacing in time between frames grouped for multipath suppression
#: (s); Section 2.4 groups frames spaced closer than 100 ms.
MULTIPATH_SUPPRESSION_WINDOW_S = 0.100

#: Angular tolerance used when matching AoA peaks across frames (degrees);
#: the Table 1 microbenchmark marks a peak "unchanged" if it moved < 5 deg.
PEAK_MATCH_TOLERANCE_DEG = 5.0

#: Angle grid resolution for AoA pseudospectra (degrees).
DEFAULT_ANGLE_RESOLUTION_DEG = 1.0

#: WARP-to-PC effective throughput (bit/s).  Section 4.4: the simple IP
#: stack on the WARP limits throughput to roughly 1 Mbit/s.
WARP_PC_THROUGHPUT_BPS = 1e6

#: WARP-to-PC bus/transfer latency (s); Section 4.4 estimates ~30 ms.
WARP_PC_BUS_LATENCY_S = 30e-3

#: Bits per recorded complex sample (16-bit I + 16-bit Q).
BITS_PER_SAMPLE = 32

#: Measured server-side synthesis (hill-climbing) processing time in the
#: paper (s), used by the latency model as the reference backend figure.
PAPER_SYNTHESIS_PROCESSING_S = 100e-3


def wavelength_for_frequency(frequency_hz: float) -> float:
    """Return the RF wavelength in metres for ``frequency_hz``.

    Parameters
    ----------
    frequency_hz:
        Carrier frequency in hertz; must be positive.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    return SPEED_OF_LIGHT / frequency_hz


def phase_constant(wavelength_m: float = WAVELENGTH_M) -> float:
    """Return the free-space phase constant ``2 * pi / wavelength`` (rad/m)."""
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m!r}")
    return 2.0 * math.pi / wavelength_m
