"""Circuit breaker: fail fast when storage is persistently down.

Retries absorb *transient* faults; when every attempt keeps failing the
fault is persistent, and burning a full retry budget per query turns a
dead disk into a pile-up of stalled workers.  The breaker converts that
regime into fast failures: after ``failure_threshold`` consecutive
failed operations it *opens* and rejects calls immediately (a
:class:`~repro.core.errors.StorageUnavailable` for the caller to
degrade on); after ``recovery_timeout_s`` it lets a limited number of
*half-open* probe operations through, closing again on the first
success and re-opening on a failed probe.

States and metrics::

    closed ──(threshold consecutive failures)──► open
      ▲                                            │ recovery timeout
      └──(probe succeeds)── half-open ◄────────────┘
                               │ probe fails → open again

``breaker.state`` gauge: 0 closed, 1 half-open, 2 open;
``breaker.trips`` / ``breaker.rejections`` counters.
"""

from __future__ import annotations

from repro.core import clock
from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge

__all__ = ["CircuitBreaker"]

_STATE_LEVELS = {"closed": 0, "half-open": 1, "open": 2}


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open recovery probes.

    Thread-safe; one lock guards all state and is never held across a
    guarded call (the breaker only *decides*, callers do the I/O).

    Args:
        failure_threshold: Consecutive failed operations that trip the
            breaker open.
        recovery_timeout_s: Open dwell time before probes are allowed.
        half_open_probes: Concurrent probe operations admitted while
            half-open.
        name: Label used in error messages and snapshots.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout_s: float = 1.0,
        half_open_probes: int = 1,
        name: str = "storage",
    ) -> None:
        if failure_threshold < 1:
            raise StorageError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_timeout_s < 0:
            raise StorageError(
                f"recovery_timeout_s must be >= 0, got {recovery_timeout_s}"
            )
        if half_open_probes < 1:
            raise StorageError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self.half_open_probes = half_open_probes
        self.name = name
        self._lock = watched_lock("faults.breaker")
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.trips = 0
        self.rejections = 0

    def _publish_state(self) -> None:
        obs_gauge("breaker.state").set(_STATE_LEVELS[self._state])

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.  Open → half-open once the dwell passed.
        if (
            self._state == "open"
            and clock.now() - self._opened_at >= self.recovery_timeout_s
        ):
            self._state = "half-open"
            self._probes_in_flight = 0

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"`` or ``"half-open"``."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """Admission check before a guarded operation.

        Returns False (counting a ``breaker.rejections``) when the call
        must fail fast; half-open admissions reserve a probe slot that
        :meth:`record_success` / :meth:`record_failure` releases.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if (
                self._state == "half-open"
                and self._probes_in_flight < self.half_open_probes
            ):
                self._probes_in_flight += 1
                return True
            self.rejections += 1
        obs_counter("breaker.rejections").inc()
        return False

    def record_success(self) -> None:
        """Report a guarded operation that completed; closes a half-open
        breaker and clears the consecutive-failure streak."""
        with self._lock:
            if self._state == "half-open":
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._state = "closed"
            self._consecutive_failures = 0
            self._publish_state()

    def record_failure(self) -> None:
        """Report a guarded operation that failed (after its retries);
        trips the breaker at the threshold or on a failed probe."""
        tripped = False
        with self._lock:
            self._maybe_half_open()
            if self._state == "half-open":
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                tripped = True
            else:
                self._consecutive_failures += 1
                tripped = (
                    self._state == "closed"
                    and self._consecutive_failures >= self.failure_threshold
                )
            if tripped:
                self._state = "open"
                self._opened_at = clock.now()
                self.trips += 1
            self._publish_state()
        if tripped:
            obs_counter("breaker.trips").inc()

    def snapshot(self) -> dict:
        """Operator view: state, streak, trip and rejection totals."""
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "rejections": self.rejections,
            }
