"""Deterministic fault injection for the resilience layer.

Every failure path the service claims to survive must be *provable* on
demand: this module owns the injection points compiled into the production
code and fires them deterministically, so the fault-tolerance tests and the
degraded-mode benchmark replay bit-identical failure schedules.

Faults are described by :class:`FaultSpec` records and activated either
programmatically (:func:`activate` / :func:`injected_faults`) or through
the ``ARRAYTRACK_FAULTS`` environment variable, which carries the same
specs as a JSON list.  Activation always exports the environment variable
too, so worker processes spawned *after* activation inherit the plan --
that is how a fault can fire inside a ``ProcessPoolExecutor`` worker.

The supported kinds, and where their hooks live:

``kill-worker-mid-shard``
    ``os._exit`` inside a pool worker while it runs a shard
    (:func:`worker_shard`, called by ``repro.api._procpool`` at the
    ``before-attach`` / ``after-attach`` / ``before-return`` stages of
    every shard task).  Surfaces parent-side as ``BrokenProcessPool``.
``slow-worker``
    ``time.sleep(delay_s)`` at the same worker stages; exercises the
    ``resilience.shard_timeout_s`` deadline.
``shm-allocation-failure``
    :class:`~repro.errors.FaultInjectedError` from the parent-side
    shared-memory packer before the segment is created
    (:func:`shm_allocation`).
``poison-frame``
    :func:`poison` corrupts an ingested item -- a spectrum's power or a
    raw buffer entry's snapshot samples -- with a NaN, exercising the
    service's poison-frame rejection.

Determinism: each spec owns a ``random.Random(seed)`` stream for its
``probability`` draws, and budgets (``times``) are enforced either
per-process or -- when ``token_dir`` is set -- across *all* processes via
atomically claimed token files, so "kill exactly one worker, then recover"
is an expressible, replayable schedule.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, FaultInjectedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ap.buffer import BufferEntry
    from repro.core.spectrum import AoASpectrum

__all__ = ["ENV_VAR", "KINDS", "STAGES", "KILL_EXIT_CODE", "FaultSpec",
           "activate", "activate_json", "deactivate", "injected_faults",
           "active_specs", "fired_counts", "worker_shard", "shm_allocation",
           "poison"]

#: Environment variable carrying the JSON fault plan into spawned workers.
ENV_VAR = "ARRAYTRACK_FAULTS"

#: Every fault kind this harness can fire.
KINDS = ("kill-worker-mid-shard", "slow-worker", "shm-allocation-failure",
         "poison-frame")

#: Worker-shard stages at which kill/slow faults can anchor.
STAGES = ("before-attach", "after-attach", "before-return")

#: Exit status of a worker killed by ``kill-worker-mid-shard`` (distinctive
#: on purpose, so an injected death is never mistaken for a real one).
KILL_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: what fires, where, how often, how long.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    stage:
        For worker-shard kinds: restrict firing to one of :data:`STAGES`
        (None fires at any stage).
    probability:
        Chance of firing per eligible hook call, drawn from this spec's
        own seeded stream (1.0 = always).
    times:
        Total firing budget (None = unlimited).  Without ``token_dir`` the
        budget is per process; with it, the budget is shared across every
        process that can reach the directory.
    delay_s:
        Sleep duration of ``slow-worker`` faults.
    seed:
        Seed of this spec's probability stream.
    token_dir:
        Directory for cross-process budget tokens (one ``O_EXCL`` file per
        firing).  Required for exactly-N semantics across pool workers.
    """

    kind: str
    stage: str | None = None
    probability: float = 1.0
    times: int | None = None
    delay_s: float = 0.05
    seed: int = 0
    token_dir: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.stage is not None and self.stage not in STAGES:
            raise ConfigurationError(
                f"unknown fault stage {self.stage!r}; "
                f"expected one of {STAGES} or None")
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability!r}")
        if self.times is not None and (not isinstance(self.times, int)
                                       or isinstance(self.times, bool)
                                       or self.times < 0):
            raise ConfigurationError(
                f"fault times must be a non-negative integer or None, "
                f"got {self.times!r}")
        if float(self.delay_s) < 0:
            raise ConfigurationError(
                f"fault delay_s must be non-negative, got {self.delay_s!r}")

    def to_dict(self) -> dict[str, object]:
        """Return the JSON-safe representation used by :data:`ENV_VAR`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        """Parse one spec, rejecting unknown keys with the offending name."""
        valid = {"kind", "stage", "probability", "times", "delay_s", "seed",
                 "token_dir"}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec key(s) {unknown}; valid: {sorted(valid)}")
        if "kind" not in data:
            raise ConfigurationError("a fault spec needs a 'kind'")
        return cls(**dict(data))  # type: ignore[arg-type]


class _ActiveFault:
    """One installed spec plus its process-local firing state."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.fired = 0
        self._rng = random.Random(spec.seed)

    def matches(self, kind: str, stage: str | None) -> bool:
        if self.spec.kind != kind:
            return False
        return self.spec.stage is None or stage is None \
            or self.spec.stage == stage

    def should_fire(self) -> bool:
        spec = self.spec
        if spec.times is not None and spec.token_dir is None \
                and self.fired >= spec.times:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        if spec.times is not None and spec.token_dir is not None \
                and not self._claim_token():
            return False
        self.fired += 1
        return True

    def _claim_token(self) -> bool:
        """Atomically claim one of the spec's cross-process budget tokens."""
        spec = self.spec
        assert spec.times is not None and spec.token_dir is not None
        for index in range(spec.times):
            path = os.path.join(spec.token_dir,
                                f"{spec.kind}.{index:04d}.token")
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(handle)
            return True
        return False


#: Installed faults of this process; None = not yet resolved from the
#: environment (spawned workers resolve lazily on their first hook call).
_ACTIVE: list[_ActiveFault] | None = None


def _compile(specs: Sequence[FaultSpec]) -> list[_ActiveFault]:
    return [_ActiveFault(spec) for spec in specs]


def _parse_plan(text: str) -> list[FaultSpec]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid fault plan JSON: {exc}") from exc
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, list):
        raise ConfigurationError(
            f"a fault plan must be a JSON list of specs, "
            f"got {type(data).__name__}")
    return [FaultSpec.from_dict(item) for item in data]


def _active() -> list[_ActiveFault]:
    """The installed faults, resolving the environment plan lazily."""
    global _ACTIVE
    if _ACTIVE is None:
        raw = os.environ.get(ENV_VAR)
        _ACTIVE = _compile(_parse_plan(raw)) if raw else []
    return _ACTIVE


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def activate(specs: Sequence[FaultSpec] | FaultSpec) -> None:
    """Install a fault plan in this process and export it to the environment.

    The export makes the plan visible to worker processes spawned after
    this call; workers spawned before it keep running fault-free.
    Replaces any previously active plan.
    """
    global _ACTIVE
    if isinstance(specs, FaultSpec):
        specs = [specs]
    plan = list(specs)
    _ACTIVE = _compile(plan)
    os.environ[ENV_VAR] = json.dumps([spec.to_dict() for spec in plan])


def activate_json(text: str) -> None:
    """Install a plan from its JSON form (the ``fault_plan`` config knob)."""
    activate(_parse_plan(text))


def deactivate() -> None:
    """Remove the active plan and its environment export (idempotent)."""
    global _ACTIVE
    _ACTIVE = []
    os.environ.pop(ENV_VAR, None)


@contextmanager
def injected_faults(*specs: FaultSpec) -> Iterator[None]:
    """Activate ``specs`` for the duration of the block, then deactivate."""
    activate(list(specs))
    try:
        yield
    finally:
        deactivate()


def active_specs() -> tuple[FaultSpec, ...]:
    """The currently installed specs of this process (resolving the env)."""
    return tuple(fault.spec for fault in _active())


def fired_counts() -> dict[str, int]:
    """Process-local firing counts by kind (token claims included)."""
    counts: dict[str, int] = {}
    for fault in _active():
        counts[fault.spec.kind] = counts.get(fault.spec.kind, 0) + fault.fired
    return counts


# ----------------------------------------------------------------------
# Hooks (called from production code; near-free while no plan is active)
# ----------------------------------------------------------------------
def _fire(kind: str, stage: str | None = None) -> FaultSpec | None:
    for fault in _active():
        if fault.matches(kind, stage) and fault.should_fire():
            return fault.spec
    return None


def worker_shard(stage: str) -> None:
    """Worker-side hook at one shard stage: may kill or slow this worker."""
    if _fire("kill-worker-mid-shard", stage) is not None:
        # A hard, un-catchable death: no atexit, no finally -- exactly the
        # signature of a segfaulted or OOM-killed worker.
        os._exit(KILL_EXIT_CODE)
    spec = _fire("slow-worker", stage)
    if spec is not None:
        time.sleep(spec.delay_s)


def shm_allocation() -> None:
    """Parent-side hook before a shared-memory segment is created."""
    if _fire("shm-allocation-failure") is not None:
        raise FaultInjectedError(
            "injected shared-memory allocation failure (fault "
            "'shm-allocation-failure')")


def poison(item: "AoASpectrum | BufferEntry") -> "AoASpectrum | BufferEntry":
    """Maybe corrupt one ingested item with a NaN.

    Returns the input unchanged while the fault is cold; when it fires, a
    *copy* is returned with ``power[0] = NaN`` for a spectrum, or with its
    first snapshot sample NaN for a raw buffer entry (the caller's arrays
    are never mutated), which the service's poison-frame rejection must
    catch.
    """
    if _fire("poison-frame") is None:
        return item
    snapshots = getattr(item, "snapshots", None)
    if snapshots is None:
        power = np.array(item.power, copy=True)  # type: ignore[union-attr]
        power[0] = np.nan
        return replace(item, power=power)
    samples = np.array(snapshots.samples, copy=True)
    samples.flat[0] = np.nan
    return replace(item, snapshots=replace(snapshots, samples=samples))
