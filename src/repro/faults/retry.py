"""Bounded retries with exponential backoff and jitter.

A transient storage fault (an injected or real ``OSError``, a CRC
failure on a torn block) is worth retrying; a missing block is not.
:class:`RetryPolicy` encodes *how much* retrying is allowed: attempts
are capped, the backoff between them grows exponentially up to a
per-sleep ceiling, jitter de-synchronizes concurrent retriers, and one
total sleep *budget* bounds how long any single operation may stall the
pipeline — the property that keeps a query's worst case predictable
under a fault storm.

The delay sequence is deterministic for a given policy: jitter comes
from a policy-seeded RNG, so a retry schedule can be replayed exactly
(and asserted on) in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import clock
from repro.core.errors import CorruptedBlockError, StorageError
from repro.obs import counter as obs_counter

__all__ = ["RetryPolicy", "TRANSIENT_ERRORS"]

#: Error classes a retry is allowed to absorb.  ``OSError`` covers real
#: and injected I/O failures (:class:`repro.faults.plan.InjectedFault`
#: subclasses it); CRC failures are retryable because a re-read of a
#: torn block returns the intact payload.  Everything else — missing
#: blocks, malformed queries — propagates immediately.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    OSError,
    CorruptedBlockError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry schedule, jittered and budget-capped.

    Attributes:
        max_attempts: Total tries, including the first (``1`` disables
            retrying).
        base_delay_s: Sleep before the first retry.
        multiplier: Per-retry growth factor (>= 1).
        max_delay_s: Ceiling on any single sleep.
        jitter: Fractional upward jitter: each sleep is scaled by
            ``1 + jitter * u`` with ``u ~ U[0, 1)``.  Only upward, so
            whenever ``multiplier >= 1 + jitter`` the jittered sequence
            stays monotone below the ceiling.
        budget_s: Hard cap on *total* sleep per operation; delays that
            would cross it are clipped, and attempts whose delay budget
            is exhausted are dropped.
        seed: Jitter RNG seed — equal policies replay equal schedules.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.050
    jitter: float = 0.1
    budget_s: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.budget_s < 0:
            raise StorageError("retry delays and budget must be >= 0")
        if self.multiplier < 1.0:
            raise StorageError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.jitter < 0:
            raise StorageError(f"jitter must be >= 0, got {self.jitter}")

    def _budget_cap(self, raw: list[float]) -> list[float]:
        """Clip a delay sequence so its sum never exceeds ``budget_s``."""
        capped: list[float] = []
        spent = 0.0
        for delay in raw:
            room = self.budget_s - spent
            if room <= 0.0:
                break
            delay = min(delay, room)
            capped.append(delay)
            spent += delay
        return capped

    def base_delays(self) -> list[float]:
        """The un-jittered backoff sequence: monotone non-decreasing,
        each sleep <= ``max_delay_s``, summing to <= ``budget_s``.

        One entry per *retry* (so at most ``max_attempts - 1``); the
        list is shorter when the budget runs out first.
        """
        raw = [
            min(self.base_delay_s * self.multiplier ** k, self.max_delay_s)
            for k in range(self.max_attempts - 1)
        ]
        return self._budget_cap(raw)

    def delays(self, rng: random.Random | None = None) -> list[float]:
        """The jittered backoff sequence actually slept, budget-capped.

        Each entry lies in ``[base, base * (1 + jitter)]`` of the
        corresponding :meth:`base_delays` entry (before budget
        clipping).  ``rng`` defaults to a fresh policy-seeded RNG, so
        repeated calls replay the same schedule.
        """
        rng = rng or random.Random(self.seed)
        raw = [
            min(self.base_delay_s * self.multiplier ** k, self.max_delay_s)
            * (1.0 + self.jitter * rng.random())
            for k in range(self.max_attempts - 1)
        ]
        return self._budget_cap(raw)

    def execute(
        self,
        fn,
        *args,
        transient: tuple[type[BaseException], ...] = TRANSIENT_ERRORS,
        on_retry=None,
    ):
        """Call ``fn(*args)``, retrying transient failures per schedule.

        Emits ``retry.attempts`` (every call made), ``retry.retries``
        (second and later calls), ``retry.giveups`` (schedule exhausted)
        and ``retry.sleep_seconds`` (total backoff slept).  Re-raises
        the final transient error on give-up — callers wanting a typed
        failure wrap it (see
        :class:`repro.faults.resilience.ResilientCaller`).

        Args:
            fn: The operation (typically a block read).
            *args: Its arguments.
            transient: Error classes worth retrying.
            on_retry: Optional ``on_retry(attempt, error)`` hook.
        """
        schedule = None  # drawn at the first failure, not every call
        attempt = 0
        while True:
            obs_counter("retry.attempts").inc()
            try:
                result = fn(*args)
            except transient as exc:
                if schedule is None:
                    schedule = self.delays()
                if attempt >= len(schedule):
                    obs_counter("retry.giveups").inc()
                    raise
                delay = schedule[attempt]
                attempt += 1
                obs_counter("retry.retries").inc()
                obs_counter("retry.sleep_seconds").inc(delay)
                if on_retry is not None:
                    on_retry(attempt, exc)
                if delay > 0.0:
                    clock.sleep(delay)
                continue
            if attempt:
                obs_counter("retry.recoveries").inc()
            return result
