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
* latency spikes — slept through a
  :class:`~repro.storage.latency.LatencyModel` (the one sleep of the
  storage stack, the mechanism the leaf's base seek time uses too).

Determinism: every decision is a pure function of ``(seed, stream,
member, code, k)`` — the stream (read, spike or write), the replica
member, the block code and ``k``, that block's own read (or write)
ordinal on its faulty layer — hashed to a uniform by blake2b.  A block
meets the same fate whatever was read before it, in whatever group, on
however many shards, so a chaos failure replays and can be handed over;
a retry is simply the block's next ``k``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.storage.codec import decode_block, encode_block
from repro.storage.device import DeviceLayer
from repro.storage.disk import BlockGroup
from repro.storage.latency import LatencyModel

__all__ = [
    "FaultPlan",
    "FaultyDevice",
    "InjectedFault",
    "InjectedReadError",
    "InjectedWriteError",
]

#: The three decision streams, the second field of every key.
READ, SPIKE, WRITE = range(3)
_KEY = struct.Struct("<5q")


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


@dataclass(frozen=True)
class FaultPlan:
    """A seed and the rates of a keyed, stateless fault schedule.

    :meth:`uniform` maps a decision's key to ``[0, 1)``; a decision
    fires when its uniform is below the stream's rate.
    ``read_error_rate`` and ``torn_rate`` partition one read uniform, so
    their sum must stay within ``[0, 1]``; spikes and writes have
    streams of their own.  With every rate zero the plan never injects
    anything (the control run, ``aims chaos --fault-rate 0``).

    Attributes:
        seed: Equal seeds make equal decisions.
        read_error_rate: Fraction of reads raising
            :class:`InjectedReadError`.
        torn_rate: Fraction of reads returning a corrupted payload
            (caught by the block codec's CRC).
        latency_spike_rate: Fraction of reads sleeping an extra
            ``latency_spike_s``.
        latency_spike_s: Spike duration (seconds).
        write_error_rate: Fraction of writes raising
            :class:`InjectedWriteError`.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    torn_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.005
    write_error_rate: float = 0.0

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

    def uniform(self, stream: int, member: int, code: int, k: int) -> float:
        """The key's uniform in ``[0, 1)``: 53 bits of its blake2b."""
        digest = hashlib.blake2b(
            _KEY.pack(self.seed, stream, member, code, k), digest_size=8
        ).digest()
        return (int.from_bytes(digest, "little") >> 11) * 2.0 ** -53

    def read_fault(self, member: int, code: int, k: int) -> str | None:
        """The ``k``-th read of ``code`` on replica ``member``:
        ``"error"``, ``"torn"`` or ``None`` for a clean read."""
        if self.read_error_rate + self.torn_rate == 0.0:
            return None
        u = self.uniform(READ, member, code, k)
        if u < self.read_error_rate:
            return "error"
        if u < self.read_error_rate + self.torn_rate:
            return "torn"
        return None

    def spiked(self, member: int, code: int, k: int) -> bool:
        """Whether that read also sleeps ``latency_spike_s``."""
        return self.latency_spike_rate > 0.0 and (
            self.uniform(SPIKE, member, code, k) < self.latency_spike_rate
        )

    def write_fault(self, member: int, code: int, k: int) -> bool:
        """Whether the ``k``-th write of ``code`` on ``member`` fails."""
        return self.write_error_rate > 0.0 and (
            self.uniform(WRITE, member, code, k) < self.write_error_rate
        )


def _torn(block):
    """``block`` with one byte flipped, as a torn sector write would
    leave it — past the 8-byte ``MAGIC | CRC32`` header so the damage
    lands in the body and the checksum (not a magic-number check)
    catches it.  An array payload is framed, torn and decoded here."""
    if not isinstance(block, bytes):
        return decode_block(_torn(encode_block(block)))
    torn = bytearray(block)
    torn[max(8, len(torn) // 2) % len(torn)] ^= 0xFF
    return bytes(torn)


class FaultyDevice(DeviceLayer):
    """Fault-injecting middleware over any block device.

    Drop-in: with ``plan`` ``None`` (or ``injecting`` False) every
    operation passes straight through, which is what keeps the no-fault
    path of the resilience stack regression-clean.  Otherwise a group's
    members take their next read (or write) ordinals under one lock
    acquisition, and the plan decides each member from its key outside
    the lock — so concurrent reads still overlap, and a group meets
    exactly the decisions its members would meet alone.

    Torn reads flip one byte: on framed (bytes) payloads the corrupted
    frame is returned for the CRC layer above to reject; on raw array
    payloads the block is round-tripped through the codec here, so
    either way the damage is *detected* (raising
    :class:`~repro.core.errors.CorruptedBlockError`), never silently
    returned.

    Args:
        inner: The device below; it hands a group back in the order
            asked (a leaf does).
        plan: The :class:`FaultPlan`, or ``None``.
        member: Replica member index, the third field of every key, so
            a replica does not fail together with its primary.
        injecting: Master switch; stores flip it off while writing
            their initial population (those writes model in-memory
            construction, not live traffic) and back on afterwards.
    """

    def __init__(self, inner, plan: FaultPlan | None = None,
                 member: int = 0, injecting: bool = True) -> None:
        super().__init__(inner)
        self.plan = plan
        self.member = member
        self.injecting = injecting
        #: Decisions that fired (errors, torn reads, failed writes).
        self.fired = 0
        # Per code: how many reads / writes were decided.
        self._reads: dict[int, int] = {}
        self._writes: dict[int, int] = {}
        self._lock = watched_lock("faults.faulty")

    def _ordinals(self, table: dict, ids: list) -> list:
        """Each member's ordinal, taken (and advanced) under one lock."""
        with self._lock:
            ks = []
            for code in ids:
                k = table.get(code, 0)
                table[code] = k + 1
                ks.append(k)
        return ks

    def _fire(self, n: int) -> None:
        if n:
            with self._lock:
                self.fired += n

    def write_many(self, codes, payloads: list) -> None:
        """Bulk store: every member decided, then one inner write — or,
        when any member fails, an :class:`InjectedWriteError` before
        anything is written (the caller retries the idempotent group)."""
        plan = self.plan if self.injecting else None
        if plan is None:
            self.inner.write_many(codes, payloads)
            return
        ids = np.asarray(codes, dtype=np.intp).tolist()
        failed = [
            code for code, k in zip(ids, self._ordinals(self._writes, ids))
            if plan.write_fault(self.member, code, k)
        ]
        if failed:
            self._fire(len(failed))
            obs_counter("faults.injected.write_errors").inc(len(failed))
            raise InjectedWriteError(
                f"injected write failure on block {failed[0]}"
            )
        self.inner.write_many(codes, payloads)

    def read_many(self, codes) -> BlockGroup:
        """Bulk fetch: every member decided, then an
        :class:`InjectedReadError` before any inner I/O if one drew
        ``error``; otherwise one sleep for the spiked members, one inner
        read, and the torn members corrupted."""
        plan = self.plan if self.injecting else None
        if plan is None:
            return self.inner.read_many(codes)
        codes = np.asarray(codes, dtype=np.intp)
        ids = codes.tolist()
        keys = list(zip(ids, self._ordinals(self._reads, ids)))
        kinds = [plan.read_fault(self.member, code, k) for code, k in keys]
        errors, torn = kinds.count("error"), kinds.count("torn")
        self._fire(errors + torn)
        if errors:
            obs_counter("faults.injected.read_errors").inc(errors)
            raise InjectedReadError(
                f"injected read failure on block {ids[kinds.index('error')]}"
            )
        spikes = sum(plan.spiked(self.member, code, k) for code, k in keys)
        if spikes:
            obs_counter("faults.injected.latency_spikes").inc(spikes)
            LatencyModel(plan.latency_spike_s).wait(spikes)
        group = self.inner.read_many(codes)
        if not torn:
            return group
        obs_counter("faults.injected.torn_blocks").inc(torn)
        return group._replace(payloads=[
            _torn(block) if kind == "torn" else block
            for block, kind in zip(group.payloads, kinds)
        ])

    def ordinals(self) -> tuple[dict, dict]:
        """Copies of the per-code read and write counts decided so far."""
        with self._lock:
            return dict(self._reads), dict(self._writes)

    def history(self) -> list:
        """Every decision made, as ``(code, k, kind)``: the reads, by
        code and ordinal, ``kind`` ``"error"``, ``"torn"`` or ``None``;
        then the writes, ``kind`` ``"write_error"`` or ``None``.  It is
        recomputed from :meth:`ordinals`, so it is exact and unbounded.
        """
        plan, member = self.plan, self.member
        reads, writes = self.ordinals()
        return [
            (code, k, plan.read_fault(member, code, k))
            for code, n in sorted(reads.items()) for k in range(n)
        ] + [
            (code, k, "write_error" if plan.write_fault(member, code, k)
             else None)
            for code, n in sorted(writes.items()) for k in range(n)
        ]

    def stats(self) -> dict:
        """Injection state plus the inner layers' statistics."""
        return {
            "layer": "faulty",
            "injecting": self.injecting,
            "active": self.plan is not None,
            "inner": self.inner.stats(),
        }
