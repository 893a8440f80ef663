"""One latency model for every simulated delay in the storage stack.

A leaf disk sleeps its base seek time through :class:`LatencyModel`,
and the fault layer sleeps its latency spikes (decided by the
:class:`~repro.faults.plan.FaultPlan`'s keyed spike stream) through a
model of the spike's duration, so :meth:`LatencyModel.wait` is the one
wait of ``repro.storage`` and ``repro.faults`` (on the installed
:mod:`repro.core.clock`).  The model holds no state but its delay, so
every leaf of a stack shares one.
Callers never hold a device lock across :meth:`LatencyModel.wait`.
"""

from __future__ import annotations

from repro.core import clock
from repro.core.errors import StorageError

__all__ = ["LatencyModel"]


class LatencyModel:
    """A fixed per-read delay.

    Args:
        base_s: Seek/transfer time added to every read (seconds).
    """

    def __init__(self, base_s: float = 0.0) -> None:
        if base_s < 0:
            raise StorageError(f"base latency must be >= 0, got {base_s}")
        self.base_s = base_s

    def wait(self, n: int) -> None:
        """Sleep ``n`` reads' delay, ``n × base_s``, as one sleep (none
        when it is zero): a device has one head, so a group's seeks are
        sequential and cost what ``n`` single reads would — minus
        ``n - 1`` timer round-trips.

        Call without holding any device lock, so concurrent reads
        overlap their simulated seek time.
        """
        if n and self.base_s:
            clock.sleep(n * self.base_s)

    def __repr__(self) -> str:
        return f"LatencyModel(base_s={self.base_s})"
