"""Deterministic fault injection, as device-stack middleware.

Large immersive deployments owe their robustness to being *exercised*
against failure: sensors drop out mid-session, disks return garbage or
stall, and the pipeline has to keep answering queries.  This module
makes those failures reproducible: a :class:`FaultPlan` is a seeded
schedule of injected faults, and :class:`FaultyDevice` is a
:class:`~repro.storage.device.DeviceLayer` that consults the plan on
every read and write of the device below it.

Three read-fault kinds are injected:

* ``error`` — the read raises :class:`InjectedReadError` (an ``OSError``
  subclass, so generic I/O handling sees a plain I/O failure);
* ``torn`` — the block comes back with one byte flipped.  Stacked below
  a :class:`~repro.storage.device.CrcFramedDevice` (the canonical
  order), the corrupted *frame* propagates up and the CRC check — not
  luck — raises :class:`~repro.core.errors.CorruptedBlockError`;
  without a CRC layer, array payloads are round-tripped through
  the codec here so corruption is still detected, never silently
  returned;
* latency spikes — delegated to the plan's
  :class:`~repro.storage.latency.LatencyModel` (the same mechanism the
  leaf device's base seek time uses, so delay budgets can no longer be
  configured twice in contradiction).

Determinism: every error/torn decision comes from one seeded RNG drawn
in operation order under the plan's lock, so the same seed driving the
same operation sequence replays the identical fault schedule — the
property the replay test asserts via :attr:`FaultPlan.history`.  Spike
draws replay independently from the latency model's own seeded RNG.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.storage.codec import decode_block, encode_block
from repro.storage.device import DeviceLayer
from repro.storage.latency import LatencyModel

__all__ = [
    "FaultPlan",
    "FaultyDevice",
    "InjectedFault",
    "InjectedReadError",
    "InjectedWriteError",
]


class InjectedFault(StorageError, OSError):
    """Base class for injected I/O failures.

    Deliberately both a :class:`~repro.core.errors.StorageError` (the
    library's hierarchy) and an :class:`OSError` (what real device I/O
    raises), so production-style ``except OSError`` handling and retry
    policies treat injected faults exactly like real ones.
    """


class InjectedReadError(InjectedFault):
    """A read the fault plan decided should fail."""


class InjectedWriteError(InjectedFault):
    """A write the fault plan decided should fail."""


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of storage faults.

    ``read_error_rate`` and ``torn_rate`` are per-operation
    probabilities partitioning one uniform draw, so their sum must stay
    within ``[0, 1]``.  Latency spikes live in the plan's
    :attr:`latency` model (one :class:`~repro.storage.latency.LatencyModel`
    owning both rate and duration) and draw from their own seeded
    stream.  With every rate zero the plan never injects anything (the
    control run, ``aims chaos --fault-rate 0``).

    Attributes:
        seed: RNG seed; equal seeds replay equal schedules.
        read_error_rate: Fraction of reads raising
            :class:`InjectedReadError`.
        torn_rate: Fraction of reads returning a corrupted payload
            (caught by the block codec's CRC).
        latency_spike_rate: Fraction of reads sleeping an extra
            ``latency_spike_s`` (folded into :attr:`latency`).
        latency_spike_s: Spike duration (seconds).
        write_error_rate: Fraction of writes raising
            :class:`InjectedWriteError`.
        latency: The consolidated spike model; built from the two spike
            fields when not supplied.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    torn_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.005
    write_error_rate: float = 0.0
    latency: LatencyModel | None = None
    #: Recent (operation index, fault kind) decisions, newest last;
    #: ``kind`` is ``None`` for clean operations.  Bounded, for the
    #: replay test and post-mortem inspection.
    history: deque = field(default_factory=lambda: deque(maxlen=4096))

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "torn_rate", "latency_spike_rate",
                     "write_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise StorageError(f"{name} must be in [0, 1], got {rate}")
        if self.read_error_rate + self.torn_rate > 1.0:
            raise StorageError(
                "read fault rates sum past 1.0; they partition one draw"
            )
        if self.latency_spike_s < 0:
            raise StorageError(
                f"latency_spike_s must be >= 0, got {self.latency_spike_s}"
            )
        if self.latency is None:
            self.latency = LatencyModel(
                spike_rate=self.latency_spike_rate,
                spike_s=self.latency_spike_s,
                seed=self.seed,
            )
        self._lock = watched_lock("faults.plan")
        self._rng = random.Random(self.seed)
        self._ops = 0

    def reset(self) -> None:
        """Rewind to operation zero: the schedule replays from the top."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self._ops = 0
            self.history.clear()
        self.latency.reset()

    def _record(self, kind: str | None) -> str | None:
        self.history.append((self._ops, kind))
        self._ops += 1
        return kind

    def read_fault(self) -> str | None:
        """Decide the next read's fate: ``"error"``/``"torn"`` or
        ``None`` for a clean read (spikes are the latency model's call)."""
        with self._lock:
            u = self._rng.random()
            if u < self.read_error_rate:
                return self._record("error")
            if u < self.read_error_rate + self.torn_rate:
                return self._record("torn")
            return self._record(None)

    def write_fault(self) -> bool:
        """Decide whether the next write fails."""
        with self._lock:
            failed = self._rng.random() < self.write_error_rate
            self._record("write_error" if failed else None)
            return failed


def _corrupt_frame(frame: bytes) -> bytes:
    """One byte of a frame flipped, as a torn sector write would leave
    it — past the 8-byte ``MAGIC | CRC32`` header so the damage lands in
    the body and the checksum (not a magic-number check) catches it."""
    torn = bytearray(frame)
    torn[max(8, len(torn) // 2) % len(torn)] ^= 0xFF
    return bytes(torn)


class FaultyDevice(DeviceLayer):
    """Fault-injecting middleware over any block device.

    Drop-in: with ``plan`` ``None`` (or ``injecting`` False) every
    operation passes straight through, which is what keeps the no-fault
    path of the resilience stack regression-clean.  Torn reads flip one
    byte: on framed (bytes) payloads the corrupted frame is returned
    for the CRC layer above to reject; on raw array payloads the
    block is round-tripped through the codec here, so either way the
    damage is *detected* (raising
    :class:`~repro.core.errors.CorruptedBlockError`), never silently
    returned.  Fault decisions and spike sleeps happen outside any
    device lock, preserving the leaf's overlap of concurrent reads.
    """

    def __init__(self, inner, plan: FaultPlan | None = None,
                 injecting: bool = True) -> None:
        super().__init__(inner)
        self.plan = plan
        #: Master switch: stores flip this off while writing their
        #: initial population (those writes model in-memory
        #: construction, not live traffic) and back on afterwards.
        self.injecting = injecting

    def _active_plan(self) -> FaultPlan | None:
        if self.plan is not None and self.injecting:
            return self.plan
        return None

    def write_many(self, blocks: dict) -> None:
        """Bulk store with one seeded fault draw per member, in group
        order around a group-of-one inner write — the identical
        schedule N sequential writes would draw.  A drawn failure aborts
        the group at that member; the caller retries the (idempotent)
        group.  Not injecting, the group passes through whole.
        """
        plan = self._active_plan()
        if plan is None:
            self.inner.write_many(blocks)
            return
        for block_id, items in blocks.items():
            if plan.write_fault():
                obs_counter("faults.injected.write_errors").inc()
                raise InjectedWriteError(
                    f"injected write failure on block {block_id!r}"
                )
            self.inner.write_many({block_id: items})

    def read_many(self, block_ids) -> dict:
        """Bulk fetch through the fault plan: one seeded draw per member,
        in group order around a group-of-one inner read, raising at the
        member that drew the fault.  Not injecting, the group passes
        through whole."""
        plan = self._active_plan()
        if plan is None:
            return self.inner.read_many(block_ids)
        out: dict = {}
        for block_id in block_ids:
            kind = plan.read_fault()
            if kind == "error":
                obs_counter("faults.injected.read_errors").inc()
                raise InjectedReadError(
                    f"injected read failure on block {block_id!r}"
                )
            plan.latency.wait(1)
            block = self.inner.read_many([block_id])[block_id]
            if kind == "torn":
                obs_counter("faults.injected.torn_blocks").inc()
                if isinstance(block, bytes):
                    block = _corrupt_frame(block)
                else:
                    block = decode_block(_corrupt_frame(encode_block(block)))
            out[block_id] = block
        return out

    def stats(self) -> dict:
        """Injection state plus the inner layers' statistics."""
        return {
            "layer": "faulty",
            "injecting": self.injecting,
            "active": self.plan is not None,
            "inner": self.inner.stats(),
        }
