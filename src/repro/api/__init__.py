"""Public service facade of the ArrayTrack reproduction.

This package is the documented entry point for applications:

* :class:`ArrayTrackConfig` -- one typed, validated, serializable
  configuration tree composing the per-layer config dataclasses;
* :class:`ArrayTrackService` -- batch localization, streaming per-client
  :class:`Session` objects, and AP-fleet wiring behind one object.

The AoA spectrum estimator (``music``, ``bartlett`` or ``capon``) is the
``ap.spectrum.method`` leaf of the config tree; the RSSI baselines of the
Section 5 comparison live in :mod:`repro.baselines`.

See ``docs/api.md`` for the full guide.
"""

from repro.api.config import (
    ArrayTrackConfig,
    ParallelConfig,
    ResilienceConfig,
    SessionConfig,
)
from repro.core.suppression import SuppressorConfig
from repro.api.service import ArrayTrackService, Session

__all__ = [
    "ArrayTrackConfig",
    "ArrayTrackService",
    "ParallelConfig",
    "ResilienceConfig",
    "Session",
    "SessionConfig",
    "SuppressorConfig",
]
