"""The Section 2.5 estimator's configuration and its result type.

:class:`LocalizerConfig` parameterizes the server-side synthesis step, and
:class:`LocationEstimate` is one fix it produces.  The step itself is
:class:`~repro.core.batch.BatchLocalizer`: it takes the per-AP spectra of
many clients (already weighted / symmetry-resolved / multipath-suppressed
as configured), evaluates the likelihood of Equation 8 over a grid of
candidate positions, and refines the best grid cells with hill climbing.
It is deliberately independent of how the spectra were produced, so the
same estimator serves the "unoptimized" baseline of Figure 13 and the full
ArrayTrack pipeline of Figure 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import DEFAULT_GRID_RESOLUTION_M
from repro.errors import EstimationError
from repro.geometry.vector import Point2D

__all__ = ["LocationEstimate", "LocalizerConfig"]


@dataclass(frozen=True)
class LocationEstimate:
    """A single location fix produced by the estimator.

    Attributes
    ----------
    position:
        Estimated client position in building coordinates (metres).
    likelihood:
        Value of L(x) at the estimate (after spectrum normalization).
    num_aps:
        Number of APs whose spectra contributed.
    client_id:
        Identifier of the localized client.
    """

    position: Point2D
    likelihood: float
    num_aps: int
    client_id: str = ""

    def error_to(self, ground_truth: Point2D) -> float:
        """Return the Euclidean localization error against ``ground_truth``."""
        return self.position.distance_to(ground_truth)


@dataclass
class LocalizerConfig:
    """Configuration of the grid search / hill climbing location estimator.

    A fix never builds the full grid map; the Figure 14 surfaces come from
    :meth:`~repro.core.batch.BatchLocalizer.heatmaps`, on request.

    Attributes
    ----------
    grid_resolution_m:
        Grid spacing of the coarse search (10 cm in the paper).
    refine_with_hill_climbing:
        Run the Section 2.5 hill climbing refinement from the best grid
        cells (disable for the fastest, grid-only estimates).
    num_seeds:
        Number of top grid cells used to seed hill climbing (3 in the paper).
    spectrum_floor:
        Minimum relative value a spectrum contributes to the likelihood
        product; keeps one blind AP from vetoing the true location (0
        reproduces the plain Equation 8 product).
    """

    grid_resolution_m: float = DEFAULT_GRID_RESOLUTION_M
    refine_with_hill_climbing: bool = True
    num_seeds: int = 3
    spectrum_floor: float = 0.02

    def __post_init__(self) -> None:
        if not math.isfinite(self.grid_resolution_m) \
                or self.grid_resolution_m <= 0:
            raise EstimationError(
                "grid_resolution_m must be positive and finite")
        if isinstance(self.num_seeds, bool) \
                or not isinstance(self.num_seeds, int):
            raise EstimationError(
                f"num_seeds must be an int, got {self.num_seeds!r}")
        if self.num_seeds < 1:
            raise EstimationError("num_seeds must be >= 1")
        if not 0.0 <= self.spectrum_floor < 1.0:
            raise EstimationError("spectrum_floor must be in [0, 1)")
