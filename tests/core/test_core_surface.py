"""The public surface of :mod:`repro.core`, pinned.

A name joining or leaving ``repro.core.__all__`` changes what callers can
import; this pin makes that an explicit edit here (and a row in the
"Removed entry points" table of ``docs/api.md`` for a removal).
"""

import repro.core

CORE_NAMES = [
    "AoASpectrum", "BatchLocalizer", "BearingGrid", "BearingGridCache",
    "CacheStats", "HillClimbResult", "LikelihoodMap", "LocalizerConfig",
    "LocationEstimate", "MultipathSuppressor", "SpectrumComputer",
    "SpectrumConfig", "SpectrumPeak", "SteeringCache",
    "SubspaceDecomposition", "SubspaceDecompositionBatch",
    "SuppressorConfig", "SymmetryResolver", "WindowCache",
    "bartlett_spectrum", "bartlett_spectrum_many", "cached_geometry_window", "capon_spectrum",
    "capon_spectrum_many", "clear_default_caches", "count_distinct_sources",
    "decompose", "decompose_many", "default_angle_grid",
    "default_bearing_cache", "default_steering_cache", "default_window_cache",
    "effective_antennas", "estimate_num_sources_mdl", "find_peaks",
    "forward_backward_covariance", "forward_backward_covariance_many",
    "geometry_window", "grid_axes", "group_spectra_by_time", "match_peak",
    "music_spectrum", "music_spectrum_many", "peak_regions",
    "sample_covariance", "sample_covariance_many", "smooth_snapshots",
    "smoothed_covariance", "smoothed_covariance_many",
    "spectrum_from_noise_subspace", "spectrum_from_noise_subspace_many",
]


def test_core_all_is_pinned():
    assert sorted(repro.core.__all__) == CORE_NAMES
    assert len(CORE_NAMES) == 51


def test_every_core_name_resolves():
    for name in repro.core.__all__:
        assert getattr(repro.core, name) is not None, name
