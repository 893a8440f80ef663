"""The one clock the library reads (DESIGN.md, "One clock"): seeks,
retry backoff, breaker dwell, query deadlines, replay pacing and
ingest's degraded time all go through :func:`now` and :func:`sleep`.
``with SimClock():`` replaces the default :class:`RealClock` for a
test.  Threads meet on a simulated clock only through :func:`fork`.
"""

from __future__ import annotations

import threading
import time

__all__ = ["Clock", "RealClock", "SimClock", "fork", "now", "sleep"]


class RealClock:
    """The process's monotonic clock; a sleep blocks the thread."""

    now = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)


class SimClock:
    """Virtual time, installed process-wide by ``with``: each thread's
    timeline starts at 0.0 and moves only by its own sleeps, which never
    block; ``slept`` lists every sleep, in request order."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.slept: list[float] = []

    def now(self) -> float:
        """The calling thread's simulated time."""
        return getattr(self._local, "now", 0.0)

    def sleep(self, seconds: float) -> None:
        """Advance the calling thread's timeline by ``seconds``."""
        self.slept.append(seconds)
        self._local.now = self.now() + seconds

    def __enter__(self) -> SimClock:
        global _clock
        self._previous, _clock = _clock, self
        return self

    def __exit__(self, *exc) -> None:
        global _clock
        _clock = self._previous


#: A clock: ``now()`` in seconds, and ``sleep(seconds)``.
Clock = RealClock | SimClock

_clock: Clock = RealClock()


def now() -> float:
    """The installed clock's time, in seconds."""
    return _clock.now()


def sleep(seconds: float) -> None:
    """Wait ``seconds`` on the installed clock."""
    _clock.sleep(seconds)


def fork(submit, fn):
    """``submit(fn)`` to an executor; returns the call that takes its
    result.  On a :class:`SimClock`, ``fn`` starts at the caller's time
    and the taker resumes at ``fn``'s end if that is later, so waits
    on several threads cost their maximum, not their sum."""
    clock = _clock
    if not isinstance(clock, SimClock):
        return submit(fn).result
    start, end = clock.now(), []

    def branch():
        clock._local.now = start
        try:
            return fn()
        finally:
            end.append(clock.now())

    future = submit(branch)

    def join():
        try:
            return future.result()
        finally:
            clock._local.now = max([clock.now(), *end])

    return join
