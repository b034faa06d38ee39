"""Circuit breaker and counters behind the service's degradation ladder.

The process backend is the fast rung of a two-rung ladder, not a single
point of failure: when a pool round fails (:mod:`repro.api._procpool`
discards the pool and raises), the service serves the batch on plain
serial execution -- which cannot fail for infrastructure reasons at all.
The :class:`CircuitBreaker` here is the ladder's one retry policy: it
decides which rung a batch enters at and when to probe the process rung
again (half-open), so a persistent failure costs at most one doomed
attempt per recovery window instead of one per batch.

Everything is deliberately deterministic and clock-injectable: tests drive
the breaker through open -> half-open -> closed with a fake monotonic
clock, no sleeping involved.

Thread-safety: like the rest of :class:`~repro.api.ArrayTrackService`, a
breaker is driven from one caller thread at a time; it holds no locks.
"""

from __future__ import annotations

import time
from collections.abc import Callable


__all__ = ["CircuitBreaker", "ResilienceStats", "backend_ladder"]


def backend_ladder(backend: str) -> tuple[str, ...]:
    """The degradation ladder for a configured backend, fastest first.

    ``serial`` is always the last rung, which is what makes "never fail a
    batch serial could have served" enforceable.
    """
    return ("process", "serial") if backend == "process" else ("serial",)


class CircuitBreaker:
    """Counts the configured rung's failures and picks each batch's entry rung.

    States (reported by :attr:`state`):

    ``closed``
        No degradation: batches enter at the configured backend (rung 0).
    ``open``
        Rung 0 has failed ``threshold`` consecutive times; batches enter at
        the serial rung until ``recovery_s`` of (monotonic) time has
        passed.
    ``half-open``
        The recovery window has elapsed: the next batch probes rung 0.  A
        successful probe closes the breaker; a failed one re-opens the
        window.

    Only rung 0 is tracked: the serial rung is the floor, so its outcome
    changes nothing.  Failures only count when they are transient (the
    caller gates on :class:`~repro.errors.TransientError`); a
    deterministic data error says nothing about the infrastructure and
    must not trip the breaker.
    """

    def __init__(self, ladder: tuple[str, ...], *, threshold: int,
                 recovery_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not ladder:
            raise ValueError("a circuit breaker needs a non-empty ladder")
        self.ladder = ladder
        self.threshold = threshold
        self.recovery_s = recovery_s
        self._clock = clock
        #: Consecutive transient failures of rung 0 since its last success.
        self._failures = 0
        #: Monotonic time the breaker opened (None while closed).
        self._opened_at: float | None = None

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def entry_index(self) -> int:
        """The ladder index the next batch should enter at."""
        return 1 if self.state == "open" else 0

    def record_failure(self) -> None:
        """Record one transient failure of rung 0."""
        if self._opened_at is not None:
            # A half-open probe failed: re-open the window.
            self._opened_at = self._clock()
            return
        self._failures += 1
        if self._failures >= self.threshold and len(self.ladder) > 1:
            self._opened_at = self._clock()
            self._failures = 0

    def record_success(self) -> None:
        """Record one batch served by rung 0 (closes a half-open breaker)."""
        self._failures = 0
        self._opened_at = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half-open``."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.recovery_s:
            return "half-open"
        return "open"

    @property
    def level(self) -> int:
        """1 while the breaker is open or half-open, else 0."""
        return 0 if self._opened_at is None else 1

    def snapshot(self) -> dict[str, object]:
        """JSON-safe state for :meth:`~repro.api.ArrayTrackService.health`."""
        return {
            "state": self.state,
            "ladder": list(self.ladder),
            "level": self.level,
            "entry_backend": self.ladder[self.entry_index()],
            "failures": self._failures,
            "threshold": self.threshold,
            "recovery_s": self.recovery_s,
        }


class ResilienceStats:
    """Service-level ingest/fallback counters surfaced by ``health()``."""

    def __init__(self) -> None:
        #: Frames dropped by the service-level pending budget
        #: (``shed_policy = "shed-oldest"``).
        self.shed_frames = 0
        #: Ingest calls rejected by the budget (``shed_policy = "reject"``).
        self.backpressure_rejected = 0
        #: Frames rejected as poison (NaN/inf values, mismatched grids).
        self.poison_rejected = 0
        #: Batches served by a lower rung than they entered at, keyed by
        #: the rung that served them (e.g. ``{"serial": 2}``).
        self.fallbacks: dict[str, int] = {}
        #: Message of the transient error behind the most recent fallback.
        self.last_fallback_error: str | None = None

    def record_fallback(self, backend: str, error: BaseException) -> None:
        """Count one batch falling through to ``backend``."""
        self.fallbacks[backend] = self.fallbacks.get(backend, 0) + 1
        self.last_fallback_error = f"{type(error).__name__}: {error}"
