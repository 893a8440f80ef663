"""The block-device protocol and its composable middleware stack.

Before this layer existed, the storage data path was an accretion of
special cases: the simulated disk carried a weak-ref set of caches to
invalidate, fault injection was a disk subclass, CRC framing was bolted
onto ``BlockStore._read``, and retry/breaker resilience was wrapped
around the store rather than the device.  This module re-expresses all
of it as one small interface — :class:`BlockDevice` — plus stackable
middleware implementing it:

* :class:`CachingDevice` — LRU block cache; write-through invalidation
  is an *internal* invariant (writes enter through the cache), so the
  old weak-ref side channel on the disk is gone;
* :class:`CrcFramedDevice` — frames payloads through the CRC block
  codec (``MAGIC | CRC32 | body``) so at-rest corruption surfaces as a
  typed :class:`~repro.core.errors.CorruptedBlockError`;
* :class:`MeteredDevice` — observability counters at a chosen seam
  (``storage.disk.*`` directly above the leaf, ``storage.device.*``
  for the whole stack);
* :class:`ResilientDevice` — retry + circuit breaker composed at the
  device seam (:mod:`repro.faults`);
* ``FaultyDevice`` (:mod:`repro.faults.plan`) — seeded fault injection
  as middleware instead of a disk subclass.

:class:`StorageSpec` is the one-object storage configuration (shards /
cache / faults / resilience / latency) that block stores, the AIMS
facade and the CLI all build from, and :meth:`StorageSpec.build` is the
one place the layers are wired, in the one order::

    metered > resilient > caching > crc > faulty > disk

(metering outermost so it sees every logical read; retries outside the
cache so a failed miss is re-driven through it; CRC inside the cache so
hits are not re-verified; faults below CRC so torn frames are *caught*
by the checksum, not simulated around it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs.stats import StatsBase
from repro.storage.codec import FRAME_HEADER_BYTES, decode_block, encode_block
from repro.storage.disk import BlockGroup, IOStats, SimulatedDisk, frozen_payload
from repro.storage.latency import LatencyModel
from repro.storage.replication import ReplicatedDevice
from repro.storage.sharding import ShardedDevice

__all__ = [
    "BlockDevice",
    "BuiltStorage",
    "CachingDevice",
    "CrcFramedDevice",
    "DeviceLayer",
    "MeteredDevice",
    "PoolStats",
    "ResilientDevice",
    "StorageSpec",
]


@runtime_checkable
class BlockDevice(Protocol):
    """What every storage layer speaks: blocks addressed by integer code.

    Two data methods — a scalar read or write is a group of one — and
    two of metadata; concrete devices and middleware also provide the
    wider conventional surface (``has_block``, ``block_ids``,
    ``occupancy``, ``io_totals``, ``block_size``) which
    :class:`DeviceLayer` delegates by default.  A payload is an
    immutable value — a read-only ``float64`` array or ``bytes`` — so
    no layer copies one on the way in or out.
    """

    def read_many(self, codes) -> BlockGroup:
        """Fetch a group of blocks: the codes read, in the order handed
        back, with their payloads (shared, immutable: never copied) and
        lengths aligned to them."""

    def write_many(self, codes, payloads: list) -> None:
        """Store (or overwrite) each code's payload, aligned by index."""

    def n_blocks(self) -> int:
        """Number of allocated blocks."""

    def stats(self) -> dict:
        """Nested per-layer statistics, outermost layer first."""


@dataclass
class PoolStats(StatsBase):
    """Hit/miss/eviction/invalidation counters of a caching layer.

    Shares the ``reset``/``snapshot``/``delta`` protocol of
    :class:`repro.obs.stats.StatsBase`, so cache activity can be
    differenced before/after a workload exactly like device I/O.
    Updates happen under the owning cache's lock, so concurrent traffic
    never loses increments.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DeviceLayer:
    """Base class for stackable middleware over an inner block device.

    Delegates the :class:`BlockDevice` metadata surface to ``inner``;
    every subclass implements the two group methods it mediates.
    Layers must never hold a lock across a call into ``inner`` (the
    storage locking rule from ``docs/ARCHITECTURE.md``).
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    @property
    def block_size(self) -> int:
        """Item capacity of one block (delegated to the leaf device)."""
        return self.inner.block_size

    def has_block(self, code: int) -> bool:
        """Existence check (directory metadata, no I/O charged)."""
        return self.inner.has_block(code)

    def block_ids(self) -> list:
        """Codes of all allocated blocks (no I/O charged)."""
        return self.inner.block_ids()

    def n_blocks(self) -> int:
        """Number of allocated blocks."""
        return self.inner.n_blocks()

    def occupancy(self) -> float:
        """Mean fraction of block capacity in use."""
        return self.inner.occupancy()

    def io_totals(self) -> IOStats:
        """Cumulative leaf-device I/O below this layer (copy)."""
        return self.inner.io_totals()

    def stats(self) -> dict:
        """Nested per-layer statistics (default: pass through)."""
        return self.inner.stats()

    def __len__(self) -> int:
        return self.n_blocks()


class MeteredDevice(DeviceLayer):
    """Observability middleware: counts reads/writes at its seam.

    Placed directly above the leaf with ``prefix="storage.disk"`` it
    reproduces the classic device counters; placed outermost with
    ``prefix="storage.device"`` it counts every logical read the stack
    serves (cache hits included).  Counters go both to local fields and
    to the process-wide metrics registry.
    """

    def __init__(self, inner, prefix: str = "storage.device") -> None:
        super().__init__(inner)
        self.prefix = prefix
        self.reads = 0
        self.writes = 0
        self._lock = watched_lock("storage.metered")

    def read_many(self, codes) -> BlockGroup:
        """Bulk fetch, counting one read per block and preserving the
        inner device's fan-out."""
        group = self.inner.read_many(codes)
        n = len(group.codes)
        with self._lock:
            self.reads += n
        obs_counter(f"{self.prefix}.reads").inc(n)
        return group

    def write_many(self, codes, payloads: list) -> None:
        """Bulk store, counting one write per block and preserving the
        inner device's coalesced fan-out."""
        self.inner.write_many(codes, payloads)
        n = len(payloads)
        with self._lock:
            self.writes += n
        obs_counter(f"{self.prefix}.writes").inc(n)

    def stats(self) -> dict:
        """This meter's totals plus the inner layers' statistics."""
        with self._lock:
            reads, writes = self.reads, self.writes
        return {
            "layer": "metered",
            "prefix": self.prefix,
            "reads": reads,
            "writes": writes,
            "inner": self.inner.stats(),
        }


class CachingDevice(DeviceLayer):
    """Fixed-capacity LRU cache middleware: hits are free, misses cost
    one inner read.

    Coherence is an internal invariant: every write enters through
    :meth:`write_many`, which writes through to the inner device and
    then invalidates the cached copies — no weak-ref side channel on
    the leaf.  Cached entries are the inner device's immutable
    payloads (with their lengths), handed to every reader as the one
    shared instance — a cached read copies nothing, hit or miss.

    Thread safety: one lock guards the LRU map, :class:`PoolStats` and
    the invalidation generation; the lock is *not* held across the
    inner read a group's misses perform.  That opens a window — a
    payload read before a concurrent write could be inserted after that
    write's invalidation ran — closed by the generation gate: every
    ``invalidate``/``clear`` bumps ``_gen`` and a group only publishes
    its misses if no invalidation happened since its read began.
    """

    def __init__(self, inner, capacity: int) -> None:
        if capacity <= 0:
            raise StorageError(
                f"cache capacity must be positive, got {capacity}"
            )
        super().__init__(inner)
        self.capacity = capacity
        self.pool_stats = PoolStats()
        # code -> (payload, length), least recently used first.
        self._cache: OrderedDict[int, tuple] = OrderedDict()
        self._lock = watched_lock("storage.caching")
        # Bumped by every invalidate()/clear(); see the class docstring.
        self._gen = 0

    def _occupancy(self) -> float:
        return len(self._cache) / self.capacity

    def read_many(self, codes) -> BlockGroup:
        """Cached fetch of a group: the hits, then *one* inner read for
        every miss, then one gated publish.

        Hits are served (and made most-recent) before any miss is
        published, so a group never evicts a block it is itself about
        to return.  A failed inner read publishes nothing and counts no
        miss.  The hits come back first, in request order, then the
        inner read's group.
        """
        codes = np.asarray(codes, dtype=np.intp)
        found: list[tuple] = []  # (code, payload, length) of each hit
        miss_at: list[int] = []
        with self._lock:
            cache = self._cache
            for at, code in enumerate(codes.tolist()):
                entry = cache.get(code)
                if entry is None:
                    miss_at.append(at)
                else:
                    cache.move_to_end(code)
                    found.append((code, *entry))
            hits = len(found)
            self.pool_stats.hits += hits
            gen = self._gen
        if hits:
            obs_counter("storage.pool.hits").inc(hits)
        hit_codes, payloads, lens = zip(*found) if found else ((), (), ())
        hit = BlockGroup(
            np.array(hit_codes, np.intp), list(payloads), np.array(lens, np.intp)
        )
        if not miss_at:
            return hit
        # Inner payloads are immutable, so the shared instance is the
        # cache entry itself.
        missed = self.inner.read_many(codes[miss_at])
        evicted = 0
        with self._lock:
            self.pool_stats.misses += len(miss_at)
            if self._gen == gen:
                for code, *entry in zip(
                    missed.codes.tolist(), missed.payloads, missed.lens.tolist()
                ):
                    cache.setdefault(code, entry)
                while len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
                    evicted += 1
                self.pool_stats.evictions += evicted
            occupancy = self._occupancy()
        obs_counter("storage.pool.misses").inc(len(miss_at))
        if evicted:
            obs_counter("storage.pool.evictions").inc(evicted)
        obs_gauge("storage.pool.occupancy").set(occupancy)
        return BlockGroup.join([hit, missed]) if hits else missed

    def write_many(self, codes, payloads: list) -> None:
        """Group write-through: one coalesced inner write, then every
        touched id invalidated.

        Invalidation happens *after* the inner write settles, with one
        generation bump per block: an in-flight read racing any of
        these writes sees a generation newer than the one it captured
        and declines to publish its stale payloads.  When the inner write
        fails partway (an injected write fault below), every member is
        invalidated anyway: blocks that did reach the device must not
        be shadowed by stale cache entries, and dropping a still-valid
        entry merely costs one re-read.
        """
        try:
            self.inner.write_many(codes, payloads)
        finally:
            for code in np.asarray(codes, dtype=np.intp).tolist():
                self.invalidate(code)

    def invalidate(self, code: int) -> None:
        """Drop a cached block.

        Always bumps the invalidation generation — even when the block
        is not currently cached — because an in-flight miss may be
        about to publish a pre-write payload.
        """
        with self._lock:
            self._gen += 1
            dropped = self._cache.pop(code, None) is not None
            if dropped:
                self.pool_stats.invalidations += 1
            occupancy = self._occupancy()
        if dropped:
            obs_counter("storage.pool.invalidations").inc()
            obs_gauge("storage.pool.occupancy").set(occupancy)

    def clear(self) -> None:
        """Empty the cache (statistics are kept)."""
        with self._lock:
            self._gen += 1
            self._cache.clear()
        obs_gauge("storage.pool.occupancy").set(0.0)

    def cached_blocks(self) -> int:
        """Blocks currently held in memory."""
        with self._lock:
            return len(self._cache)

    @property
    def generation(self) -> int:
        """Current invalidation generation (monotonic).

        Every invalidation or clear bumps it, so two equal readings
        bracket a window with no cache invalidation in between — the
        provenance surface records it per answer
        (:class:`~repro.query.explain.QueryProvenance`).
        """
        with self._lock:
            return self._gen

    def stats(self) -> dict:
        """Cache counters plus the inner layers' statistics."""
        with self._lock:
            snap = self.pool_stats.snapshot()
            cached = len(self._cache)
        return {
            "layer": "caching",
            "capacity": self.capacity,
            "cached": cached,
            "hits": snap.hits,
            "misses": snap.misses,
            "evictions": snap.evictions,
            "invalidations": snap.invalidations,
            "inner": self.inner.stats(),
        }


class CrcFramedDevice(DeviceLayer):  # lint: ignore[obs-coverage] — transparent framing; corruption surfaces as faults.* series from the faulty layer
    """CRC-framing middleware: array payloads above, self-verifying
    byte frames (``MAGIC | CRC32 | body``) below.

    Every write is encoded through the block codec before it reaches
    the inner device, and every read is CRC-verified before the body is
    decoded — at-rest corruption (including torn frames injected by a
    ``FaultyDevice`` stacked *below* this layer) surfaces as a typed
    :class:`~repro.core.errors.CorruptedBlockError`, never as silently
    wrong coefficients.
    """

    def __init__(self, inner) -> None:
        super().__init__(inner)
        # Item counts per block: the leaf stores opaque frames, so the
        # item-capacity bookkeeping (occupancy, overfull rejection)
        # moves up here.
        self._counts: dict[int, int] = {}
        self._lock = watched_lock("storage.crc")

    def write_many(self, codes, payloads: list) -> None:
        """Frame every payload in the group and store the encoded frames
        as one coalesced inner write.

        Validation (array payloads only, capacity bound) runs for the
        *whole* group before any frame reaches the inner device, so a
        malformed member rejects the batch instead of leaving a torn
        group half-written.
        """
        ids = np.asarray(codes, dtype=np.intp).tolist()
        frames = [
            encode_block(frozen_payload(code, items, self.block_size))
            for code, items in zip(ids, payloads)
        ]
        self.inner.write_many(codes, frames)
        with self._lock:
            self._counts.update(zip(ids, map(len, payloads)))

    def read_many(self, codes) -> BlockGroup:
        """Fetch the group's frames as one inner read, then verify each
        CRC and decode its payload (a frame's length gives its
        payload's)."""
        frames = self.inner.read_many(codes)
        return BlockGroup(
            frames.codes,
            list(map(decode_block, frames.payloads)),
            (frames.lens - FRAME_HEADER_BYTES) // 8,
        )

    def occupancy(self) -> float:
        """Mean fraction of block item-capacity in use (tracked here —
        the leaf only sees opaque frames)."""
        with self._lock:
            if not self._counts:
                return 0.0
            used = sum(self._counts.values())
            return used / (len(self._counts) * self.block_size)

    def stats(self) -> dict:
        """Framing layer marker plus the inner layers' statistics."""
        return {"layer": "crc", "inner": self.inner.stats()}


class ResilientDevice(DeviceLayer):  # lint: ignore[obs-coverage] — retry.* / breaker.* are emitted by the policy and breaker its ResilientCaller runs every guarded call under
    """Retry + circuit-breaker middleware at the device seam.

    Every read runs under a
    :class:`~repro.faults.resilience.ResilientCaller`: transient faults
    (``OSError``, CRC failures) are retried per the policy, persistent
    failure trips the breaker, and exhaustion surfaces as one typed
    :class:`~repro.core.errors.StorageUnavailable`.  Stacked *outside*
    the cache, so a retried read is re-driven through the (uncached on
    failure) miss path.
    """

    def __init__(self, inner, retry_policy=None, breaker=None) -> None:
        # Lazy: repro.faults imports this module for DeviceLayer.
        from repro.faults.resilience import ResilientCaller

        super().__init__(inner)
        self.retry_policy = retry_policy
        self.breaker = breaker
        self._caller = ResilientCaller(retry_policy, breaker)

    def read_many(self, codes) -> BlockGroup:
        """Bulk fetch, each block independently guarded — a group of one
        under the retry/breaker stack — so one block's exhaustion does
        not waste the others' completed reads."""
        codes = np.asarray(codes, dtype=np.intp)
        return BlockGroup.join([
            self._caller.call(self.inner.read_many, codes[at:at + 1])
            for at in range(len(codes))
        ])

    def write_many(self, codes, payloads: list) -> None:
        """Group commit under the retry/breaker stack.

        The whole group is guarded as *one* operation — block overwrites
        are idempotent, so when an injected write fault fails the group
        partway through, the retry simply re-drives every member and the
        final state is the intended one.  Guarding the group (instead of
        per block, as :meth:`read_many` does) keeps the inner layers'
        coalesced fan-out intact on the retried attempt.
        """
        self._caller.call(self.inner.write_many, codes, payloads)

    def stats(self) -> dict:
        """Resilience configuration plus the inner layers' statistics."""
        return {
            "layer": "resilient",
            "breaker": (
                self.breaker.snapshot() if self.breaker is not None else None
            ),
            "inner": self.inner.stats(),
        }


def _clone_breaker(breaker):
    """A fresh breaker with the template's parameters — shards and
    replica members degrade independently, so they must not share
    failure streaks."""
    from repro.faults.breaker import CircuitBreaker

    return CircuitBreaker(
        failure_threshold=breaker.failure_threshold,
        recovery_timeout_s=breaker.recovery_timeout_s,
        half_open_probes=breaker.half_open_probes,
        clock=breaker._clock,
        name=breaker.name,
    )


def _derive_plan(plan, cell: int):
    """A fault plan with the same rates and the seed of one cell of the
    shard × member grid."""
    from repro.faults.plan import FaultPlan

    return FaultPlan(
        seed=plan.seed + 1 + 7919 * cell,
        read_error_rate=plan.read_error_rate,
        torn_rate=plan.torn_rate,
        latency_spike_rate=plan.latency_spike_rate,
        latency_spike_s=plan.latency_spike_s,
        write_error_rate=plan.write_error_rate,
    )


@dataclass
class BuiltStorage:
    """Handles into a built storage stack (possibly sharded).

    ``device`` is the outermost :class:`BlockDevice` consumers talk to;
    ``sharded`` the :class:`~repro.storage.sharding.ShardedDevice`
    fan-out layer, or ``None``; ``replica_groups`` the per-shard
    :class:`~repro.storage.replication.ReplicatedDevice` handles, in
    shard order (empty without replicas).  ``disks``, ``caches``,
    ``breakers`` and ``faulty`` are flat lists in shard-major,
    member-minor order, one entry per (shard, member) sub-stack that
    has the layer — without replication, one per shard in shard order.
    """

    spec: "StorageSpec"
    device: object = None
    sharded: object = None
    replica_groups: list = field(default_factory=list)
    disks: list = field(default_factory=list)
    caches: list = field(default_factory=list)
    breakers: list = field(default_factory=list)
    faulty: list = field(default_factory=list)

    def resync_replicas(self) -> int:
        """Resync every shard's stale replica members from its primary;
        returns the total number of members restored."""
        return sum(group.resync() for group in self.replica_groups)

    def shard_of(self, codes):
        """Shard index of each block code (0 when unsharded)."""
        if self.sharded is None:
            return np.zeros(np.shape(codes), dtype=np.intp)
        return self.sharded.placement[codes]

    def set_injecting(self, flag: bool) -> None:
        """Toggle fault injection on every faulty layer (no-op without
        a fault plan)."""
        for layer in self.faulty:
            layer.injecting = bool(flag)

    def close(self) -> None:
        """Release held resources (the sharded fan-out pool); idempotent."""
        if self.sharded is not None:
            self.sharded.close()


@dataclass(frozen=True)
class StorageSpec:
    """Declarative storage configuration: one object, one stack shape.

    The single source of truth the block stores, the
    :class:`~repro.core.aims.AIMS` facade and the ``aims`` CLI
    (``--shards N --cache-blocks K --fault-rate p``) build storage
    from.  :meth:`build` is the one place the layer order is written::

        metered > resilient > caching > crc > faulty > disk   (x shards)

    with absent features simply dropped from the chain.

    Attributes:
        shards: Number of striped leaf devices (1 = unsharded).
        cache_blocks: Total cached blocks across the stack (split
            evenly over shards); ``None`` disables caching.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`
            template.  With multiple fault targets each gets an
            independently-seeded derived plan.
        retry_policy: Optional :class:`~repro.faults.retry.RetryPolicy`
            (stateless — shared across shards).
        breaker: Optional :class:`~repro.faults.breaker.CircuitBreaker`
            template; sharded/replicated stacks clone it per shard and
            per replica member so one failed device trips only its own
            breaker.
        latency: Optional :class:`~repro.storage.latency.LatencyModel`
            template for the leaf devices (derived per shard/member).
        crc: Force CRC framing on/off; ``None`` enables it exactly when
            a fault plan is present.
        fault_shards: Restrict fault injection to these shard indices
            (``None`` = all shards).
        replicas: Replica members per shard on top of the primary
            (0 = unreplicated).  Each member is a full independent
            sub-stack kept in sync by a
            :class:`~repro.storage.replication.ReplicatedDevice`.
        fault_replicas: Restrict fault injection to these member
            indices within each faulted shard (``None`` = all members;
            ``(0,)`` kills only primaries — the failover drill).
    """

    shards: int = 1
    cache_blocks: int | None = None
    fault_plan: object = None
    retry_policy: object = None
    breaker: object = None
    latency: LatencyModel | None = None
    crc: bool | None = None
    fault_shards: tuple[int, ...] | None = None
    replicas: int = 0
    fault_replicas: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise StorageError(f"shards must be >= 1, got {self.shards}")
        if self.cache_blocks is not None and self.cache_blocks <= 0:
            raise StorageError(
                f"cache_blocks must be positive, got {self.cache_blocks}"
            )
        if self.fault_shards is not None:
            bad = [s for s in self.fault_shards
                   if not 0 <= s < self.shards]
            if bad:
                raise StorageError(
                    f"fault_shards {bad} outside [0, {self.shards})"
                )
        if self.replicas < 0:
            raise StorageError(
                f"replicas must be >= 0, got {self.replicas}"
            )
        if self.fault_replicas is not None:
            bad = [m for m in self.fault_replicas
                   if not 0 <= m < self.replicas + 1]
            if bad:
                raise StorageError(
                    f"fault_replicas {bad} outside "
                    f"[0, {self.replicas + 1})"
                )

    def crc_enabled(self) -> bool:
        """Whether the stack frames payloads through the CRC codec."""
        if self.crc is not None:
            return bool(self.crc)
        return self.fault_plan is not None

    def _member_plan(self, shard: int, member: int):
        """The fault plan for one (shard, member) sub-stack, or None.

        A single targeted device keeps the caller's plan instance, so
        its seeded history replays exactly; multiple targets get
        independently-seeded derived plans (collision-free across the
        shard × member grid).
        """
        if self.fault_plan is None:
            return None
        shards = (
            range(self.shards) if self.fault_shards is None
            else set(self.fault_shards)
        )
        members = (
            range(self.replicas + 1) if self.fault_replicas is None
            else set(self.fault_replicas)
        )
        if shard not in shards or member not in members:
            return None
        if len(shards) * len(members) == 1:
            return self.fault_plan
        return _derive_plan(self.fault_plan, shard + self.shards * member)

    def _member(self, built: BuiltStorage, block_size: int,
                shard: int, member: int):
        """One (shard, member) sub-stack, leaf upward; returns it and
        its breaker (or None).

        Stateful middleware is never shared between sub-stacks: every
        one but the unsharded primary — which keeps the caller's own
        latency model and breaker — gets a model derived for its cell
        of the shard × member grid and a breaker cloned from the
        template.
        """
        # Lazy: repro.faults imports this module for DeviceLayer.
        from repro.faults.plan import FaultyDevice

        cell = shard + self.shards * member
        own = self.shards == 1 and member == 0
        latency, breaker = self.latency, self.breaker
        if latency is not None and not own:
            latency = latency.derive(cell)
        if breaker is not None and not own:
            breaker = _clone_breaker(breaker)
        disk = SimulatedDisk(block_size=block_size, latency=latency)
        built.disks.append(disk)
        device = MeteredDevice(disk, prefix="storage.disk")
        plan = self._member_plan(shard, member)
        if plan is not None:
            device = FaultyDevice(device, plan=plan)
            built.faulty.append(device)
        if self.crc_enabled():
            device = CrcFramedDevice(device)
        if self.cache_blocks:
            per_shard = -(-self.cache_blocks // self.shards)  # ceil
            device = CachingDevice(device, capacity=max(1, per_shard))
            built.caches.append(device)
        if self.retry_policy is not None or breaker is not None:
            device = ResilientDevice(device, self.retry_policy, breaker)
            if breaker is not None:
                built.breakers.append(breaker)
        return device, breaker

    def build(self, block_size: int, placement=None) -> BuiltStorage:
        """Build the device stack for a given leaf block size; a sharded
        stack splits by the store's ``placement`` table
        (:func:`~repro.storage.sharding.placement_table`)."""
        built = BuiltStorage(self)
        shards = []
        for shard in range(self.shards):
            members = [
                self._member(built, block_size, shard, member)
                for member in range(self.replicas + 1)
            ]
            device = members[0][0]
            if self.replicas:
                # Outside each member's retry/breaker: the group sees a
                # member's exhaustion as one typed StorageUnavailable
                # and fails over instead of retrying blindly.
                device = ReplicatedDevice(
                    [sub for sub, _ in members],
                    breakers=[breaker for _, breaker in members],
                )
                built.replica_groups.append(device)
            shards.append(device)
        if self.shards > 1:
            # Fan-out overlaps device *waits*: simulated latency, a fault
            # plan's spikes, a retry policy's backoff.  With none, a read
            # is dictionary lookups under the GIL and a pool hand-off per
            # shard only costs (a thread wake-up each; bimodal on a small
            # VM).  So the width is ShardedDevice's default with a wait
            # source in the spec, 1 (no pool) without.
            waits = (self.latency, self.fault_plan, self.retry_policy)
            device = built.sharded = ShardedDevice(
                shards, placement,
                fanout_workers=(
                    None if any(w is not None for w in waits) else 1
                ),
            )
        built.device = MeteredDevice(device, prefix="storage.device")
        return built
