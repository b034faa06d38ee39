"""ArrayTrack reproduction: fine-grained indoor localization from AoA spectra.

This package is a from-scratch Python reproduction of "ArrayTrack: A
Fine-Grained Indoor Location System" (Xiong & Jamieson, NSDI 2013).  It
contains the paper's core contribution -- MUSIC-based AoA pseudospectra with
spatial smoothing, array geometry weighting, array symmetry removal,
multipath suppression and likelihood synthesis (:mod:`repro.core`) -- plus
every substrate the evaluation depends on: an indoor ray-tracing channel
simulator, an 802.11 preamble / packet-detection layer, a multi-antenna AP
model with diversity synthesis and phase calibration, the simulated 41-client
office testbed, RSSI baselines and the experiment harness regenerating every
table and figure of the paper.

The documented one-line import is the service facade::

    from repro import ArrayTrackConfig, ArrayTrackService

    service = ArrayTrackService(ArrayTrackConfig(bounds=testbed.bounds))
    estimate = service.localize(spectra_by_ap, "client-17")

See ``docs/api.md`` for the facade guide (streaming sessions, choosing
the spectrum estimator, the config schema) and ``examples/quickstart.py`` for
the flow spelled out step by step.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from repro.constants import (
    ANTENNA_SPACING_M,
    CARRIER_FREQUENCY_HZ,
    DEFAULT_NUM_SNAPSHOTS,
    DEFAULT_SPECTRUM_FLOOR,
    SAMPLE_RATE_HZ,
    WAVELENGTH_M,
)
from repro.errors import (
    ArrayError,
    ArrayTrackError,
    ChannelError,
    ConfigurationError,
    DetectionError,
    EstimationError,
    GeometryError,
    SignalError,
)

if TYPE_CHECKING:  # pragma: no cover - import-time types for tooling only
    from repro.api import (  # noqa: F401
        ArrayTrackConfig,
        ArrayTrackService,
        ParallelConfig,
        ResilienceConfig,
        Session,
        SessionConfig,
        SuppressorConfig,
    )

__version__ = "1.1.0"

#: Facade names re-exported lazily (PEP 562) so that ``import repro`` stays
#: lightweight while ``from repro import ArrayTrackService`` works as the
#: documented one-line import.
_LAZY_EXPORTS = {
    "ArrayTrackConfig": "repro.api",
    "ArrayTrackService": "repro.api",
    "ParallelConfig": "repro.api",
    "ResilienceConfig": "repro.api",
    "Session": "repro.api",
    "SessionConfig": "repro.api",
    "SuppressorConfig": "repro.api",
}

__all__ = [
    # Service facade (the documented public API)
    "ArrayTrackConfig",
    "ArrayTrackService",
    "ParallelConfig",
    "ResilienceConfig",
    "Session",
    "SessionConfig",
    "SuppressorConfig",
    # Physical constants
    "ANTENNA_SPACING_M",
    "CARRIER_FREQUENCY_HZ",
    "DEFAULT_NUM_SNAPSHOTS",
    "DEFAULT_SPECTRUM_FLOOR",
    "SAMPLE_RATE_HZ",
    "WAVELENGTH_M",
    # Exception hierarchy
    "ArrayError",
    "ArrayTrackError",
    "ChannelError",
    "ConfigurationError",
    "DetectionError",
    "EstimationError",
    "GeometryError",
    "SignalError",
    # Metadata
    "__version__",
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
