"""Multipath channel representation: complex path components with AoA.

The AoA pipeline only cares about how the superposition of propagation paths
appears at the AP's antenna array: each path contributes a complex amplitude
(magnitude from path loss / reflection / penetration, phase from its length)
arriving from a particular azimuth bearing (and, optionally, elevation).
A :class:`MultipathChannel` is simply the collection of those components for
one client-AP link at one instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import ChannelError

__all__ = ["ChannelComponent", "MultipathChannel"]


@dataclass(frozen=True)
class ChannelComponent:
    """A single arriving multipath component at the AP.

    Attributes
    ----------
    amplitude:
        Complex amplitude of the component (includes all losses and the
        propagation phase ``exp(-j 2 pi L / lambda)``).
    azimuth_deg:
        Global bearing the component arrives from, in degrees
        counter-clockwise from +x, as seen at the AP.
    elevation_deg:
        Elevation of the arriving component above the horizontal plane of
        the array; non-zero when the client is at a different height from
        the AP (Appendix A of the paper).
    is_direct:
        True when the component belongs to the (possibly obstructed)
        direct path.
    delay_s:
        Absolute propagation delay of the component.
    path_length_m:
        Geometric path length, retained for diagnostics.
    """

    amplitude: complex
    azimuth_deg: float
    elevation_deg: float = 0.0
    is_direct: bool = False
    delay_s: float = 0.0
    path_length_m: float = 0.0

    @property
    def power(self) -> float:
        """Power carried by this component (``|amplitude|^2``)."""
        return float(abs(self.amplitude) ** 2)


@dataclass
class MultipathChannel:
    """All multipath components of a single client-AP link.

    Attributes
    ----------
    components:
        Arriving components; the direct-path component, when present, is by
        convention first but nothing relies on the ordering.
    client_id:
        Identifier of the transmitting client (used in reports).
    ap_id:
        Identifier of the receiving AP.
    """

    components: list[ChannelComponent] = field(default_factory=list)
    client_id: str = ""
    ap_id: str = ""

    def __post_init__(self) -> None:
        self.components = list(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[ChannelComponent]:
        return iter(self.components)

    def add(self, component: ChannelComponent) -> None:
        """Append a component to the channel."""
        self.components.append(component)

    @property
    def total_power(self) -> float:
        """Sum of the component powers (ignores mutual phasing)."""
        return float(sum(c.power for c in self.components))

    @property
    def direct_component(self) -> ChannelComponent | None:
        """Return the strongest direct-path component, or None if absent."""
        direct = [c for c in self.components if c.is_direct]
        if not direct:
            return None
        return max(direct, key=lambda c: c.power)

    @property
    def direct_bearing_deg(self) -> float | None:
        """Azimuth of the direct path, or None when the direct path is absent."""
        component = self.direct_component
        return None if component is None else component.azimuth_deg

    @property
    def strongest_component(self) -> ChannelComponent:
        """Return the component carrying the most power."""
        if not self.components:
            raise ChannelError("channel has no components")
        return max(self.components, key=lambda c: c.power)

    def direct_path_is_dominant(self) -> bool:
        """Return True when the direct path carries the most power.

        Indoors this is frequently false (Section 2.3 of the paper): the
        whole point of the multipath suppression machinery is to cope with
        reflected paths that are stronger than the direct path.
        """
        direct = self.direct_component
        if direct is None:
            return False
        return direct.power >= self.strongest_component.power - 1e-15

    def rssi_dbm(self, transmit_power_dbm: float) -> float:
        """Return the RSSI a commodity NIC would report, in whole dBm.

        The paper contrasts ArrayTrack with RSS-based systems that only see
        a coarsely quantized power value; this helper provides that value
        for the baselines (quantized to 1 dB like commodity hardware).
        """
        power = self.total_power
        if power <= 0:
            return -100.0
        rssi = transmit_power_dbm + 10.0 * math.log10(power)
        return float(round(rssi))

    def bearings(self) -> np.ndarray:
        """Return the component azimuths as a numpy array (degrees)."""
        return np.array([float(c.azimuth_deg) for c in self.components])

    def amplitudes(self) -> np.ndarray:
        """Return the complex component amplitudes as a numpy array."""
        # dtype-pinned: complex128 -- amplitudes are Python scalars; an empty channel must still yield a complex array
        return np.array([c.amplitude for c in self.components], dtype=np.complex128)

    def scaled(self, factor: complex) -> "MultipathChannel":
        """Return a copy with every component amplitude scaled by ``factor``."""
        scaled_components = [
            ChannelComponent(
                amplitude=c.amplitude * factor,
                azimuth_deg=c.azimuth_deg,
                elevation_deg=c.elevation_deg,
                is_direct=c.is_direct,
                delay_s=c.delay_s,
                path_length_m=c.path_length_m,
            )
            for c in self.components
        ]
        return MultipathChannel(scaled_components, self.client_id, self.ap_id)

    def without_direct_path(self) -> "MultipathChannel":
        """Return a copy with the direct-path components removed.

        Useful for constructing the paper's "S2" NLOS scenario (Section 6)
        in which the direct path is totally blocked.
        """
        remaining = [c for c in self.components if not c.is_direct]
        return MultipathChannel(remaining, self.client_id, self.ap_id)

    @staticmethod
    def from_bearings(bearings_deg: Sequence[float],
                      amplitudes: Sequence[complex],
                      direct_index: int | None = 0,
                      client_id: str = "",
                      ap_id: str = "") -> "MultipathChannel":
        """Build a channel directly from bearing/amplitude lists.

        This constructor is the workhorse of the unit tests and
        microbenchmarks: it lets an experiment specify "two paths at 40 and
        120 degrees with these relative powers" without running the ray
        tracer.
        """
        if len(bearings_deg) != len(amplitudes):
            raise ChannelError(
                "bearings and amplitudes must have the same length, got "
                f"{len(bearings_deg)} and {len(amplitudes)}")
        components = [
            ChannelComponent(
                amplitude=complex(amplitude),
                azimuth_deg=float(bearing),
                is_direct=(direct_index is not None and index == direct_index),
            )
            for index, (bearing, amplitude) in enumerate(zip(bearings_deg, amplitudes, strict=True))
        ]
        return MultipathChannel(components, client_id, ap_id)
