"""End-to-end location estimation from processed AoA spectra (Section 2.5).

The :class:`LocationEstimator` is the server-side synthesis step: it takes
the per-AP spectra of a client (already weighted / symmetry-resolved /
multipath-suppressed as configured), evaluates the likelihood of Equation 8
over a grid of candidate positions, and refines the best grid cells with hill
climbing.  It is deliberately independent of how the spectra were produced,
so the same estimator serves the "unoptimized" baseline of Figure 13 and the
full ArrayTrack pipeline of Figure 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.constants import DEFAULT_GRID_RESOLUTION_M
from repro.errors import EstimationError
from repro.geometry.vector import Point2D
from repro.core.likelihood import LikelihoodMap
from repro.core.spectrum import AoASpectrum

__all__ = ["LocationEstimate", "LocalizerConfig", "LocationEstimator"]


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
    heatmap:
        The grid likelihood map, retained when the estimator is configured
        to keep it (Figure 14 visualizations); ``None`` otherwise.
    """

    position: Point2D
    likelihood: float
    num_aps: int
    client_id: str = ""
    heatmap: LikelihoodMap | None = None

    def error_to(self, ground_truth: Point2D) -> float:
        """Return the Euclidean localization error against ``ground_truth``."""
        return self.position.distance_to(ground_truth)


@dataclass
class LocalizerConfig:
    """Configuration of the grid search / hill climbing location estimator.

    Attributes
    ----------
    grid_resolution_m:
        Grid spacing of the coarse search (10 cm in the paper).
    refine_with_hill_climbing:
        Run the Section 2.5 hill climbing refinement from the best grid
        cells (disable for the fastest, grid-only estimates).
    num_seeds:
        Number of top grid cells used to seed hill climbing (3 in the paper).
    keep_heatmap:
        Attach the full likelihood map to each estimate (memory heavy; used
        by the Figure 14 experiment and the visual examples).
    normalize_spectra:
        Normalize each AP's spectrum to unit maximum before multiplying.
    spectrum_floor:
        Minimum relative value a spectrum contributes to the likelihood
        product; keeps one blind AP from vetoing the true location (0
        reproduces the plain Equation 8 product).
    """

    grid_resolution_m: float = DEFAULT_GRID_RESOLUTION_M
    refine_with_hill_climbing: bool = True
    num_seeds: int = 3
    keep_heatmap: bool = False
    normalize_spectra: bool = True
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


class LocationEstimator:
    """Estimates client positions from per-AP AoA spectra.

    Since the batched-engine refactor this class is a thin facade over
    :class:`~repro.core.batch.BatchLocalizer`: a single-client estimate is a
    batch of one, so the vectorized synthesis path is the *only* synthesis
    path and single/batch fixes can never diverge.

    Parameters
    ----------
    bounds:
        ``(xmin, ymin, xmax, ymax)`` search area in metres (typically the
        floorplan bounding box).
    config:
        Estimator configuration; defaults follow the paper.
    """

    def __init__(self, bounds: tuple[float, float, float, float],
                 config: LocalizerConfig | None = None) -> None:
        # Imported here because batch.py needs LocationEstimate from this
        # module at import time.
        from repro.core.batch import BatchLocalizer

        self._batch = BatchLocalizer(bounds, config)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """Search-area bounds in metres."""
        return self._batch.bounds

    @property
    def config(self) -> LocalizerConfig:
        """The estimator configuration shared by single and batched fixes."""
        return self._batch.config

    # ------------------------------------------------------------------
    # Main entry points
    # ------------------------------------------------------------------
    def estimate(self, spectra: Sequence[AoASpectrum],
                 client_id: str = "") -> LocationEstimate:
        """Return the most likely client position given ``spectra``.

        Raises
        ------
        EstimationError
            If no spectra are provided or none carries an AP position.
        """
        spectra = list(spectra)
        if not spectra:
            raise EstimationError("cannot localize without any AoA spectra")
        return self._batch.estimate_batch({client_id: spectra})[client_id]

    def estimate_batch(self,
                       spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                       ) -> dict[str, LocationEstimate]:
        """Localize many clients in one vectorized pass.

        See :meth:`repro.core.batch.BatchLocalizer.estimate_batch`; results
        are bit-for-bit identical to calling :meth:`estimate` per client.
        """
        return self._batch.estimate_batch(spectra_by_client)
