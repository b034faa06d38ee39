"""ArrayTrack's core contribution: AoA spectra and location synthesis.

This package implements Section 2 of the paper: MUSIC-based AoA
pseudospectrum generation with spatial smoothing (2.3), array geometry
weighting (2.3.3), array symmetry removal (2.3.4), multipath suppression
across frames (2.4), and the likelihood synthesis / hill-climbing location
estimator (2.5).

Beyond the paper, :mod:`repro.core.cache` memoizes the geometry-derived
tables (Equation 6 steering matrices, Equation 8 bearing grids) and
:mod:`repro.core.batch` evaluates the Equation 8 synthesis for many clients
in one vectorized pass; a single-client fix is a batch of one.
"""

from repro.core.cache import (
    BearingGrid,
    BearingGridCache,
    CacheStats,
    SteeringCache,
    WindowCache,
    clear_default_caches,
    default_bearing_cache,
    default_steering_cache,
    default_window_cache,
    grid_axes,
)
from repro.core.covariance import (
    forward_backward_covariance,
    forward_backward_covariance_many,
    sample_covariance,
    sample_covariance_many,
)
from repro.core.subspace import (
    SubspaceDecomposition,
    SubspaceDecompositionBatch,
    decompose,
    decompose_many,
    estimate_num_sources_mdl,
)
from repro.core.smoothing import (
    effective_antennas,
    smooth_snapshots,
    smoothed_covariance,
    smoothed_covariance_many,
)
from repro.core.music import (
    bartlett_spectrum,
    bartlett_spectrum_many,
    capon_spectrum,
    capon_spectrum_many,
    music_spectrum,
    music_spectrum_many,
    spectrum_from_noise_subspace,
    spectrum_from_noise_subspace_many,
)
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.core.peaks import SpectrumPeak, find_peaks, match_peak, peak_regions
from repro.core.weighting import cached_geometry_window, geometry_window
from repro.core.symmetry import SymmetryResolver
from repro.core.suppression import (
    MultipathSuppressor,
    SuppressorConfig,
    group_spectra_by_time,
)
from repro.core.likelihood import LikelihoodMap
from repro.core.optimizer import HillClimbResult
from repro.core.pipeline import SpectrumComputer, SpectrumConfig
from repro.core.localizer import LocalizerConfig, LocationEstimate
from repro.core.batch import BatchLocalizer, count_distinct_sources

__all__ = [
    "BatchLocalizer",
    "BearingGrid",
    "BearingGridCache",
    "CacheStats",
    "SteeringCache",
    "WindowCache",
    "clear_default_caches",
    "count_distinct_sources",
    "default_bearing_cache",
    "default_steering_cache",
    "default_window_cache",
    "grid_axes",
    "forward_backward_covariance",
    "forward_backward_covariance_many",
    "sample_covariance",
    "sample_covariance_many",
    "SubspaceDecomposition",
    "SubspaceDecompositionBatch",
    "decompose",
    "decompose_many",
    "estimate_num_sources_mdl",
    "effective_antennas",
    "smooth_snapshots",
    "smoothed_covariance",
    "smoothed_covariance_many",
    "bartlett_spectrum",
    "bartlett_spectrum_many",
    "capon_spectrum",
    "capon_spectrum_many",
    "music_spectrum",
    "music_spectrum_many",
    "spectrum_from_noise_subspace",
    "spectrum_from_noise_subspace_many",
    "AoASpectrum",
    "default_angle_grid",
    "SpectrumPeak",
    "find_peaks",
    "match_peak",
    "peak_regions",
    "cached_geometry_window",
    "geometry_window",
    "SymmetryResolver",
    "MultipathSuppressor",
    "SuppressorConfig",
    "group_spectra_by_time",
    "LikelihoodMap",
    "HillClimbResult",
    "SpectrumComputer",
    "SpectrumConfig",
    "LocalizerConfig",
    "LocationEstimate",
]
