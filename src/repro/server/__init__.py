"""Server layer: spectra aggregation, localization and client tracking."""

from repro.server.backend import ArrayTrackServer, ServerConfig
from repro.server.tracker import ClientTracker, TrackPoint

__all__ = ["ArrayTrackServer", "ServerConfig", "ClientTracker",
           "TrackPoint"]
