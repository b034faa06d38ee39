"""The single service-level configuration tree of the ArrayTrack facade.

Before this layer existed every entry point hand-wired three or four config
dataclasses (``ServerConfig`` + ``LocalizerConfig`` + ``SpectrumConfig`` +
the suppressor), and end-to-end callers copied the same magic values around
(most famously ``spectrum_floor=0.05``).  :class:`ArrayTrackConfig` composes
the existing per-layer dataclasses into one typed, validated tree that

* round-trips through plain dictionaries and JSON
  (:meth:`ArrayTrackConfig.to_dict` / :meth:`ArrayTrackConfig.from_dict` /
  :meth:`ArrayTrackConfig.to_json` / :meth:`ArrayTrackConfig.from_json` /
  :meth:`ArrayTrackConfig.from_file`), rejecting unknown keys and invalid
  values with :class:`~repro.errors.ConfigurationError`\\ s that name the
  offending path;
* supports dotted-path overrides (:meth:`ArrayTrackConfig.updated`) and
  environment-variable overrides (:meth:`ArrayTrackConfig.with_env_overrides`,
  ``ARRAYTRACK_SERVER__LOCALIZER__GRID_RESOLUTION_M=0.1`` style);
* records the historical end-to-end defaults once: the service-level
  localizer uses :data:`repro.constants.DEFAULT_SPECTRUM_FLOOR` (0.05)
  instead of every example repeating the literal.

The tree deliberately reuses the layer dataclasses rather than mirroring
their fields, so a knob added to, say, :class:`~repro.core.pipeline.
SpectrumConfig` is immediately configurable (and serializable) through the
facade with no glue code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from collections.abc import Mapping
from typing import Any

from repro.ap.access_point import APConfig
from repro.constants import DEFAULT_SPECTRUM_FLOOR
from repro.core.localizer import LocalizerConfig
from repro.core.pipeline import SpectrumConfig
from repro.core.suppression import SuppressorConfig
from repro.errors import ArrayTrackError, ConfigurationError
from repro.server.backend import ServerConfig
from repro.server.tracker import TrackerConfig

__all__ = ["ParallelConfig", "ResilienceConfig", "SessionConfig",
           "ArrayTrackConfig", "default_server_config"]


def _require_int(name: str, value: Any, minimum: int) -> None:
    """Reject a non-integer ``value`` (bools included) or one below ``minimum``."""
    # bool is an int subclass; ARRAYTRACK_PARALLEL__NUM_WORKERS=true
    # would otherwise silently become num_workers=1 (never fans out).
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_finite(name: str, value: Any, positive: bool = False) -> None:
    """Reject a non-number ``value`` (bools included), NaN, an infinity, or
    a negative one (zero too when ``positive``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value < 0 \
            or (positive and value == 0):
        kind = "positive" if positive else "non-negative"
        raise ConfigurationError(
            f"{name} must be a finite {kind} number, got {value!r}")


def default_server_config() -> ServerConfig:
    """The server section defaults used by the facade.

    Identical to ``ServerConfig()`` except that the localizer applies the
    documented end-to-end :data:`~repro.constants.DEFAULT_SPECTRUM_FLOOR`
    (0.05) instead of the paper-faithful Equation 8 default (0.02).
    """
    return ServerConfig(
        localizer=LocalizerConfig(spectrum_floor=DEFAULT_SPECTRUM_FLOOR))


@dataclass
class SessionConfig:
    """Configuration of the streaming per-client sessions.

    Attributes
    ----------
    emit_every_frames:
        Emit a fix for a client once this many frames are pending across
        all APs (0 disables the frame-count trigger).
    max_age_s:
        Emit a fix once the oldest pending frame of a client is at least
        this old, relative to ``tick(now_s)`` or, when ``now_s`` is
        omitted, to the latest ingested timestamp (None disables the
        age trigger).
    max_pending_frames:
        Hard cap on pending frames per client; the oldest pending frame is
        dropped once the cap is exceeded (a lost fix beats unbounded
        memory, exactly like the APs' circular buffers).
    suppress_multipath:
        Run the Section 2.4 multipath suppression as a streaming stage when
        a session drains: the pending frames of each AP are grouped by
        capture time (on the ingest-resolved timestamps) and each group's
        suppressed primary -- instead of the raw spectra -- feeds the
        synthesis.  Off by default: the disabled path is bit-for-bit
        identical to draining the raw spectra through
        :meth:`~repro.api.ArrayTrackService.localize_many` (which applies
        ``server.enable_multipath_suppression``).  The stage is
        parameterized by the service tree's top-level ``suppressor``
        section, the same one the batch path reads; the tracker knobs
        live in the ``tracker`` section.
    """

    emit_every_frames: int = 3
    max_age_s: float | None = None
    max_pending_frames: int = 64
    suppress_multipath: bool = False

    def __post_init__(self) -> None:
        _require_int("emit_every_frames", self.emit_every_frames, 0)
        if self.max_age_s is not None:
            _require_finite("max_age_s", self.max_age_s)
        _require_int("max_pending_frames", self.max_pending_frames, 1)
        if not isinstance(self.suppress_multipath, bool):
            raise ConfigurationError(
                f"suppress_multipath must be a boolean, "
                f"got {self.suppress_multipath!r}")


@dataclass
class ParallelConfig:
    """Configuration of the service's sharded parallel execution.

    When enabled, :meth:`~repro.api.ArrayTrackService.localize_many`,
    :meth:`~repro.api.ArrayTrackService.localize_buffered` and
    :meth:`~repro.api.ArrayTrackService.tick` split their client batch into
    contiguous shards and run each shard's suppression and synthesis in a
    spawned worker process with its own interpreter (frame arrays travel
    through shared memory, so only shard metadata and the returned fixes
    are pickled).  Every shard drains through the unchanged
    suppression/synthesis step and the per-shard batches are themselves
    bit-for-bit identical to single-client fixes, so sharded results equal
    the serial path exactly; only the tracker commit stays on the calling
    thread.  In-call sharding is not how the service scales beyond one
    core: on the measured shapes it does not beat ``"none"`` (see
    ``docs/api.md``); run one service per core instead, partitioned by
    client id.

    Attributes
    ----------
    backend:
        ``"none"`` (the default) runs everything on the calling thread;
        ``"process"`` shards batches across a persistent pool of spawned
        worker processes (requires the config tree to be picklable, which
        every built-in section is; see ``docs/api.md``).
    num_workers:
        Maximum number of workers (and shards) per batched call.
    min_clients_per_worker:
        Do not split below this many clients per shard: tiny shards pay
        more in handoff than they win in parallelism, so a batch only fans
        out once it is at least ``2 * min_clients_per_worker`` clients.
    """

    backend: str = "none"
    num_workers: int = 4
    min_clients_per_worker: int = 8

    def __post_init__(self) -> None:
        if self.backend not in ("none", "process"):
            raise ConfigurationError(
                f"parallel backend must be 'none' or 'process', "
                f"got {self.backend!r}")
        _require_int("num_workers", self.num_workers, 1)
        _require_int("min_clients_per_worker", self.min_clients_per_worker, 1)


@dataclass
class ResilienceConfig:
    """Configuration of the service's fault-tolerance layer.

    Three concerns live here (see ``docs/robustness.md`` for the failure-
    mode catalogue): **fault detection** (a per-shard deadline on the
    process pool), **graceful degradation** (a failed pool round is
    served by serial execution in the same call, and a circuit breaker
    skips the process backend after repeated failures and
    half-open-probes its way back), and **admission control** (a
    service-wide pending-frame budget with a shed policy).  Degradation
    and poison-frame rejection at ingest are always on: a batch that
    serial execution could serve never fails for infrastructure reasons,
    and a frame carrying NaN/inf values or a grid shape that contradicts
    the client's pending frames at the same AP is refused with
    :class:`~repro.errors.PoisonFrameError` before it reaches a stacked
    pass.  Every knob round-trips through dict/JSON/env exactly like
    the rest of :class:`ArrayTrackConfig`.

    Attributes
    ----------
    shard_timeout_s:
        Per-shard deadline of a pool round (None disables): a shard still
        running after this long is treated like a crashed one -- the pool
        is torn down (workers terminated), the batch is served serially
        and the next sharded call respawns the pool.
    breaker_threshold:
        Consecutive transient failures of one rung before the breaker
        opens and the service enters that rung's degraded mode.  (Each
        failing batch falls to the next rung at once either way; an open
        breaker skips the failing rung until a half-open probe succeeds.)
    breaker_recovery_s:
        Time an open breaker waits before half-open-probing the faster
        rung again (measured on the service's monotonic clock).
    max_total_pending_frames:
        Service-wide budget on pending frames summed across all sessions
        (None = unbounded).  Admission control on top of the per-session
        ``session.max_pending_frames`` cap.
    shed_policy:
        What happens to an arriving frame once the budget is full:
        ``"shed-oldest"`` drops the ingesting client's oldest pending
        frame (falling back to the globally oldest when that client has
        none), ``"reject"`` raises
        :class:`~repro.errors.BackpressureError`.
    fault_plan:
        Optional JSON fault-injection plan (see
        :mod:`repro.testing.faults`) activated when the service is built;
        testing/benchmarking only.
    """

    shard_timeout_s: float | None = None
    breaker_threshold: int = 3
    breaker_recovery_s: float = 30.0
    max_total_pending_frames: int | None = None
    shed_policy: str = "shed-oldest"
    fault_plan: str | None = None

    def __post_init__(self) -> None:
        _require_finite("breaker_recovery_s", self.breaker_recovery_s)
        if self.shard_timeout_s is not None:
            _require_finite("shard_timeout_s", self.shard_timeout_s,
                            positive=True)
        _require_int("breaker_threshold", self.breaker_threshold, 1)
        if self.max_total_pending_frames is not None:
            _require_int("max_total_pending_frames",
                         self.max_total_pending_frames, 1)
        if self.shed_policy not in ("shed-oldest", "reject"):
            raise ConfigurationError(
                f"shed_policy must be 'shed-oldest' or 'reject', "
                f"got {self.shed_policy!r}")
        if self.fault_plan is not None \
                and not isinstance(self.fault_plan, str):
            raise ConfigurationError(
                f"fault_plan must be a JSON string or None, "
                f"got {self.fault_plan!r}")


# ----------------------------------------------------------------------
# Generic section <-> dict machinery
# ----------------------------------------------------------------------
#: Which fields of each section are themselves nested config dataclasses.
_NESTED_FIELDS: dict[type, dict[str, type]] = {
    ServerConfig: {"localizer": LocalizerConfig},
    APConfig: {"spectrum": SpectrumConfig},
}

#: Field defaults merged into a nested mapping before parsing, per parent
#: section and nested key.  An absent nested key counts as an empty
#: mapping, so ``{"server": {}}`` and hand-written partial trees like
#: ``{"server": {"localizer": {"grid_resolution_m": 0.2}}}`` both stay on
#: the facade's documented 0.05 floor instead of silently reverting to the
#: bare ``LocalizerConfig`` default; an explicit value always wins.
_NESTED_FIELD_DEFAULTS: dict[type, dict[str, dict[str, Any]]] = {
    ServerConfig: {"localizer": {"spectrum_floor": DEFAULT_SPECTRUM_FLOOR}},
}


def _section_to_dict(section: Any) -> dict[str, Any]:
    """Serialize one config dataclass (recursing into nested sections)."""
    nested = _NESTED_FIELDS.get(type(section), {})
    out: dict[str, Any] = {}
    for spec in fields(section):
        value = getattr(section, spec.name)
        out[spec.name] = _section_to_dict(value) if spec.name in nested else value
    return out


def _check_leaf(path: str, name: str, annotation: Any, value: Any) -> None:
    """Reject a leaf whose value does not fit its field's annotated type.

    Bool leaves take only ``True``/``False`` (``ARRAYTRACK_..._X=False`` is
    not JSON and would otherwise arrive as the truthy string ``'False'``);
    float leaves take only a finite non-bool number (or None when the
    annotation allows it).  The layer dataclasses' own checks run first,
    so their messages win where they exist.
    """
    if annotation == "bool":
        if isinstance(value, bool):
            return
        expected = "a boolean"
    elif annotation in ("float", "float | None"):
        if (value is None and annotation != "float") or (
                isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value)):
            return
        expected = "a finite number"
    else:
        return
    raise ConfigurationError(f"invalid value under {path}: {name} must be "
                             f"{expected}, got {value!r}")


def _section_from_dict(cls: type, data: Mapping[str, Any], path: str) -> Any:
    """Build one config dataclass from a mapping, strictly validated."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{path} must be a mapping, got {type(data).__name__}")
    valid = {spec.name for spec in fields(cls)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} under {path}; "
            f"valid keys: {sorted(valid)}")
    nested = _NESTED_FIELDS.get(cls, {})
    defaults = _NESTED_FIELD_DEFAULTS.get(cls, {})
    kwargs: dict[str, Any] = {}
    # An absent nested section with defaults parses as an empty one.
    data = {**dict.fromkeys(defaults, {}), **data}
    for key, value in data.items():
        if key in nested:
            if isinstance(value, nested[key]):
                kwargs[key] = value
            elif isinstance(value, Mapping):
                kwargs[key] = _section_from_dict(
                    nested[key], {**defaults.get(key, {}), **dict(value)},
                    f"{path}.{key}")
            else:
                raise ConfigurationError(
                    f"{path}.{key} must be a mapping or a "
                    f"{nested[key].__name__}, got {type(value).__name__}")
        else:
            kwargs[key] = value
    try:
        section = cls(**kwargs)
    except (ArrayTrackError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid value under {path}: {exc}") from exc
    for spec in fields(cls):
        _check_leaf(path, spec.name, spec.type, getattr(section, spec.name))
    return section


def _assign_path(data: dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted-path key inside a nested plain-dict tree, strictly."""
    segments = path.split(".")
    cursor: Any = data
    for index, segment in enumerate(segments[:-1]):
        if not isinstance(cursor, dict) or segment not in cursor:
            prefix = ".".join(segments[:index + 1])
            raise ConfigurationError(
                f"unknown configuration path {path!r} (no section {prefix!r})")
        cursor = cursor[segment]
    leaf = segments[-1]
    if not isinstance(cursor, dict) or leaf not in cursor:
        raise ConfigurationError(
            f"unknown configuration path {path!r} (no key {leaf!r})")
    cursor[leaf] = value


@dataclass
class ArrayTrackConfig:
    """One validated configuration tree for the whole ArrayTrack service.

    Attributes
    ----------
    bounds:
        ``(xmin, ymin, xmax, ymax)`` search area in metres (typically the
        floorplan bounding box).  Must be set -- either here or via the
        ``bounds=`` argument of :class:`~repro.api.ArrayTrackService` --
        before a service can be built.
    ap:
        Per-AP configuration (:class:`~repro.ap.access_point.APConfig`),
        including the per-frame spectrum pipeline section, whose
        ``method`` picks the AoA estimator (``"music"``, ``"bartlett"``
        or ``"capon"``).  APs built via
        :meth:`repro.api.ArrayTrackService.build_ap` use it.
    server:
        Central-server configuration
        (:class:`~repro.server.backend.ServerConfig`): the localizer
        section and the batch-path ``enable_multipath_suppression``
        switch.  The facade default applies
        :data:`~repro.constants.DEFAULT_SPECTRUM_FLOOR`.
    session:
        Streaming-session configuration (:class:`SessionConfig`),
        including the ``suppress_multipath`` stage toggle.
    suppressor:
        Parameters of the Section 2.4 multipath suppression
        (:class:`~repro.core.suppression.SuppressorConfig`): peak-match
        tolerance, grouping window and group size.  The one section
        both switches read: ``session.suppress_multipath`` (every group's
        primary, grouped on ingest-resolved times) and
        ``server.enable_multipath_suppression`` (the earliest group's
        primary on the batch path).
    tracker:
        Per-client fix tracker configuration
        (:class:`~repro.server.tracker.TrackerConfig`): EMA smoothing,
        history cap and the out-of-order fix policy.
    parallel:
        Sharded parallel execution (:class:`ParallelConfig`): worker
        backend, pool size and the minimum shard size.  Off by default;
        when enabled, batched calls are bit-for-bit identical to the
        serial path.
    resilience:
        Fault tolerance (:class:`ResilienceConfig`): the pool's per-shard
        deadline, the circuit-breaker thresholds and the service-wide
        pending-frame budget with its shed policy.  See
        ``docs/robustness.md``.
    """

    bounds: tuple[float, float, float, float] | None = None
    ap: APConfig = field(default_factory=APConfig)
    server: ServerConfig = field(default_factory=default_server_config)
    session: SessionConfig = field(default_factory=SessionConfig)
    suppressor: SuppressorConfig = field(default_factory=SuppressorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self) -> None:
        if self.bounds is not None:
            try:
                bounds = tuple(float(value) for value in self.bounds)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"bounds must be four numbers, got {self.bounds!r}") from exc
            if len(bounds) != 4:
                raise ConfigurationError(
                    f"bounds must be (xmin, ymin, xmax, ymax), got {bounds!r}")
            xmin, ymin, xmax, ymax = bounds
            if xmax <= xmin or ymax <= ymin:
                raise ConfigurationError(f"degenerate bounds {bounds!r}")
            self.bounds = bounds

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def __reduce__(self) -> tuple[Any, ...]:
        """Pickle as the plain-dict tree and rebuild via :meth:`from_dict`.

        The process-backend worker initializer ships the config across the
        spawn pipe, so pickling must be cheap and robust: the dict
        round-trip reuses the one serialization path that already exists,
        keeps the payload free of class internals, and re-runs every
        validator on the receiving side.
        """
        return (_config_from_state, (self.to_dict(),))

    def to_dict(self) -> dict[str, Any]:
        """Return the full tree as plain dicts/lists/scalars (JSON-safe)."""
        return {
            "bounds": list(self.bounds) if self.bounds is not None else None,
            "ap": _section_to_dict(self.ap),
            "server": _section_to_dict(self.server),
            "session": _section_to_dict(self.session),
            "suppressor": _section_to_dict(self.suppressor),
            "tracker": _section_to_dict(self.tracker),
            "parallel": _section_to_dict(self.parallel),
            "resilience": _section_to_dict(self.resilience),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrayTrackConfig":
        """Build a config tree from a (possibly partial) mapping.

        Unknown keys anywhere in the tree and invalid values raise
        :class:`~repro.errors.ConfigurationError` naming the offending
        path; missing keys take the documented defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"config must be a mapping, got {type(data).__name__}")
        valid = {"bounds", "ap", "server", "session", "suppressor",
                 "tracker", "parallel", "resilience"}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {unknown} under config; "
                f"valid keys: {sorted(valid)}")
        kwargs: dict[str, Any] = {}
        sections = {"ap": APConfig, "server": ServerConfig,
                    "session": SessionConfig,
                    "suppressor": SuppressorConfig, "tracker": TrackerConfig,
                    "parallel": ParallelConfig,
                    "resilience": ResilienceConfig}
        for key, value in data.items():
            if key in sections and not isinstance(value, sections[key]):
                kwargs[key] = _section_from_dict(sections[key], value,
                                                 f"config.{key}")
            else:
                kwargs[key] = value
        try:
            return cls(**kwargs)
        except ArrayTrackError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid config value: {exc}") from exc

    def to_json(self, indent: int | None = 2) -> str:
        """Return the tree serialized as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ArrayTrackConfig":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid config JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_file(self, path: str) -> None:
        """Write the tree to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def from_file(cls, path: str) -> "ArrayTrackConfig":
        """Load a config tree from a JSON file."""
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read config file {path!r}: {exc}") from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------
    # Overrides
    # ------------------------------------------------------------------
    def updated(self, overrides: Mapping[str, Any]) -> "ArrayTrackConfig":
        """Return a copy with dotted-path overrides applied.

        Example::

            config.updated({"server.localizer.grid_resolution_m": 0.10,
                            "session.emit_every_frames": 1})

        Unknown paths raise :class:`~repro.errors.ConfigurationError`;
        values are re-validated by the normal construction path.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            _assign_path(data, path, value)
        return type(self).from_dict(data)

    def with_env_overrides(self, environ: Mapping[str, str] | None = None,
                           prefix: str = "ARRAYTRACK_") -> "ArrayTrackConfig":
        """Return a copy with ``PREFIX_SECTION__KEY=value`` overrides applied.

        Double underscores separate tree levels and names are lowercased,
        so ``ARRAYTRACK_SERVER__LOCALIZER__GRID_RESOLUTION_M=0.1`` sets
        ``server.localizer.grid_resolution_m``.  Values are parsed as JSON
        when possible (numbers, booleans, ``null``, lists) and kept as
        strings otherwise.  ``os.environ`` is used when ``environ`` is
        omitted.

        Only variables whose first segment names a config section
        (``bounds``, ``ap``, ``server``, ``session``, ``suppressor``,
        ``tracker``, ``parallel``, ``resilience``) are
        consumed; other ``ARRAYTRACK_*`` variables (``ARRAYTRACK_HOME``,
        ``ARRAYTRACK_LOG_LEVEL``, ...) are ignored so unrelated deployment
        environment does not crash service startup.  *Within* a recognized
        section, unknown keys still raise
        :class:`~repro.errors.ConfigurationError` (typo protection).
        """
        environ = os.environ if environ is None else environ
        sections = {spec.name for spec in fields(self)}
        overrides: dict[str, Any] = {}
        for key, raw in environ.items():
            if not key.startswith(prefix):
                continue
            path = key[len(prefix):].lower().replace("__", ".")
            if path.split(".", 1)[0] not in sections:
                continue
            try:
                value: Any = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            overrides[path] = value
        if not overrides:
            return self
        return self.updated(overrides)


def _config_from_state(data: dict[str, Any]) -> ArrayTrackConfig:
    """Unpickle hook of :meth:`ArrayTrackConfig.__reduce__`."""
    return ArrayTrackConfig.from_dict(data)
