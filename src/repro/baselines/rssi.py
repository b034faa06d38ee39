"""RSSI-based localization baselines (the related-work comparison points).

The paper positions ArrayTrack against two families of RSS systems
(Section 5):

* *map-building* approaches (RADAR, Horus): record an RSS fingerprint at
  many survey points during an offline phase, then locate a client by
  finding the nearest fingerprint(s) in signal space -- metre-level accuracy
  and heavy calibration effort;
* *model-based* approaches (TIX, Lim et al.): invert a propagation model to
  turn RSS into distances and trilaterate -- typically several metres of
  error, no calibration.

Both are implemented here against the same simulated testbed so the
benchmark suite can reproduce the qualitative comparison: ArrayTrack in the
tens of centimetres, RSS systems in the metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.cache import grid_axes
from repro.errors import EstimationError
from repro.channel.propagation import log_distance_path_loss_db
from repro.geometry.vector import Point2D

__all__ = [
    "RssFingerprint",
    "FingerprintLocalizer",
    "ModelBasedRssLocalizer",
    "WeightedCentroidLocalizer",
]


@dataclass(frozen=True)
class RssFingerprint:
    """One survey point of the offline calibration map.

    Attributes
    ----------
    position:
        Survey location.
    rssi_dbm:
        Mapping of AP id to the RSSI (dBm) observed from that AP.
    """

    position: Point2D
    rssi_dbm: Mapping[str, float]


class FingerprintLocalizer:
    """RADAR-style k-nearest-neighbour localization in signal space.

    Parameters
    ----------
    k:
        Number of nearest fingerprints averaged into the location estimate
        (RADAR uses small k; 3 is a common choice).
    """

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise EstimationError("k must be >= 1")
        self.k = k
        self._fingerprints: list[RssFingerprint] = []

    def train(self, fingerprints: Sequence[RssFingerprint]) -> None:
        """Load the offline radio map (the expensive war-driving phase)."""
        if not fingerprints:
            raise EstimationError("the radio map needs at least one fingerprint")
        self._fingerprints = list(fingerprints)

    def locate(self, rssi_dbm: Mapping[str, float]) -> Point2D:
        """Return the position estimate for an online RSSI observation."""
        if not self._fingerprints:
            raise EstimationError("localizer has not been trained with a radio map")
        distances: list[tuple[float, RssFingerprint]] = []
        for fingerprint in self._fingerprints:
            distance = self._signal_distance(rssi_dbm, fingerprint.rssi_dbm)
            distances.append((distance, fingerprint))
        distances.sort(key=lambda item: item[0])
        nearest = distances[:min(self.k, len(distances))]
        # Inverse-distance weighting of the k nearest neighbours.
        weights = np.array([1.0 / (d + 1e-3) for d, _ in nearest])
        weights = weights / np.sum(weights)
        x = float(sum(w * fp.position.x for w, (_, fp) in zip(weights, nearest, strict=True)))
        y = float(sum(w * fp.position.y for w, (_, fp) in zip(weights, nearest, strict=True)))
        return Point2D(x, y)

    @staticmethod
    def _signal_distance(a: Mapping[str, float], b: Mapping[str, float]) -> float:
        """Euclidean distance in signal space over the APs common to both."""
        common = set(a) & set(b)
        if not common:
            return float("inf")
        return math.sqrt(sum((a[ap] - b[ap]) ** 2 for ap in common) / len(common))


class ModelBasedRssLocalizer:
    """TIX-style localization: invert a log-distance model and trilaterate.

    Parameters
    ----------
    ap_positions:
        Mapping of AP id to AP position.
    transmit_power_dbm:
        Assumed client transmit power.
    path_loss_exponent:
        Exponent of the assumed log-distance model (the model error relative
        to the true environment is exactly what limits these systems).
    """

    def __init__(self, ap_positions: Mapping[str, Point2D],
                 transmit_power_dbm: float = 15.0,
                 path_loss_exponent: float = 3.0,
                 grid_resolution_m: float = 0.5) -> None:
        if not ap_positions:
            raise EstimationError("need at least one AP position")
        self.ap_positions = dict(ap_positions)
        self.transmit_power_dbm = transmit_power_dbm
        self.path_loss_exponent = path_loss_exponent
        self.grid_resolution_m = grid_resolution_m

    def estimate_distance_m(self, rssi_dbm: float) -> float:
        """Invert the log-distance model to get a distance estimate."""
        path_loss = self.transmit_power_dbm - rssi_dbm
        reference = log_distance_path_loss_db(1.0, path_loss_exponent=self.path_loss_exponent)
        exponent_term = (path_loss - reference) / (10.0 * self.path_loss_exponent)
        return float(max(10.0 ** exponent_term, 0.1))

    def locate(self, rssi_dbm: Mapping[str, float],
               bounds: tuple[float, float, float, float]) -> Point2D:
        """Return the position minimizing the squared range residuals."""
        usable = {ap: rssi for ap, rssi in rssi_dbm.items() if ap in self.ap_positions}
        if len(usable) < 3:
            raise EstimationError("model-based RSS localization needs >= 3 APs")
        ranges = {ap: self.estimate_distance_m(rssi) for ap, rssi in usable.items()}
        # One grid-layout definition repo-wide (repro-lint RPR001): the
        # exact-count axes come from the same helper the likelihood
        # synthesis uses, so baseline and ArrayTrack grids cannot drift.
        xs, ys = grid_axes(bounds, self.grid_resolution_m)
        grid_x, grid_y = np.meshgrid(xs, ys)
        cost = np.zeros_like(grid_x)
        for ap, estimated_range in ranges.items():
            position = self.ap_positions[ap]
            distance = np.hypot(grid_x - position.x, grid_y - position.y)
            cost += (distance - estimated_range) ** 2
        row, column = np.unravel_index(int(np.argmin(cost)), cost.shape)
        return Point2D(float(xs[column]), float(ys[row]))


class WeightedCentroidLocalizer:
    """Simplest baseline: RSSI-weighted centroid of the overhearing APs."""

    def __init__(self, ap_positions: Mapping[str, Point2D],
                 weight_exponent: float = 2.0) -> None:
        if not ap_positions:
            raise EstimationError("need at least one AP position")
        self.ap_positions = dict(ap_positions)
        self.weight_exponent = weight_exponent

    def locate(self, rssi_dbm: Mapping[str, float]) -> Point2D:
        """Return the weighted centroid of the APs that heard the client."""
        usable = {ap: rssi for ap, rssi in rssi_dbm.items() if ap in self.ap_positions}
        if not usable:
            raise EstimationError("no overheard APs with known positions")
        # Convert dBm to linear power and use it (raised to an exponent) as
        # the weight: stronger APs pull the centroid towards themselves.
        weights = {ap: (10.0 ** (rssi / 10.0)) ** (self.weight_exponent / 2.0)
                   for ap, rssi in usable.items()}
        total = sum(weights.values())
        x = sum(weights[ap] * self.ap_positions[ap].x for ap in usable) / total
        y = sum(weights[ap] * self.ap_positions[ap].y for ap in usable) / total
        return Point2D(float(x), float(y))
