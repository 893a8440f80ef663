"""repro.faults — fault injection and graceful degradation.

The third leg of the "heavy traffic" north star, next to observability
(:mod:`repro.obs`) and concurrency (:mod:`repro.query.service`):
controlled failure and bounded recovery.

* :mod:`repro.faults.plan` — :class:`FaultPlan` (a seed and rates whose
  every decision is keyed by block and read ordinal) and
  :class:`FaultyDevice` (device-stack middleware injecting read/write
  errors, CRC-detected torn blocks, and latency spikes slept through
  :class:`~repro.storage.latency.LatencyModel`);
* :mod:`repro.faults.retry` — :class:`RetryPolicy`, exponential backoff
  with jitter under a hard total-sleep budget;
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`, fast failure
  for persistent outages with half-open recovery probes;
* :mod:`repro.faults.resilience` — :class:`ResilientCaller`, the
  retry+breaker stack the
  :class:`~repro.storage.device.ResilientDevice` layer threads reads
  through.

Degradation semantics, tuning knobs and the ``faults.*`` / ``retry.*``
/ ``breaker.*`` metric catalogue are documented in
``docs/OPERATIONS.md``.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import (
    FaultPlan,
    FaultyDevice,
    InjectedFault,
    InjectedReadError,
    InjectedWriteError,
)
from repro.faults.resilience import ResilientCaller
from repro.faults.retry import TRANSIENT_ERRORS, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "FaultyDevice",
    "InjectedFault",
    "InjectedReadError",
    "InjectedWriteError",
    "ResilientCaller",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
]

