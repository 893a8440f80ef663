"""The block-device protocol and its composable middleware stack.

Before this layer existed, the storage data path was an accretion of
special cases: the simulated disk carried a weak-ref set of caches to
invalidate, fault injection was a disk subclass, CRC framing was bolted
onto ``BlockStore._read``, and retry/breaker resilience was wrapped
around the store rather than the device.  This module re-expresses all
of it as one small interface — :class:`BlockDevice` — plus stackable
middleware implementing it:

* :class:`CachingDevice` — LRU block cache that makes each group most
  recent deepest-first in the error tree, so the root-ward blocks every
  range query shares are evicted last; write-through invalidation is an
  *internal* invariant (writes enter through the cache), so the old
  weak-ref side channel on the disk is gone;
* :class:`CrcFramedDevice` — frames payloads through the CRC block
  codec (``MAGIC | CRC32 | body``) so at-rest corruption surfaces as a
  typed :class:`~repro.core.errors.CorruptedBlockError`;
* :class:`MeteredDevice` — observability counters at a chosen seam
  (``storage.disk.*`` directly above the leaf, ``storage.device.*``
  for the whole stack);
* :class:`ResilientDevice` — retry + circuit breaker composed at the
  device seam (:mod:`repro.faults`);
* ``FaultyDevice`` (:mod:`repro.faults.plan`) — keyed fault injection
  as middleware instead of a disk subclass.

:class:`StorageSpec` is the one-object storage configuration (shards /
cache / faults / resilience / latency) that block stores, the AIMS
facade and the CLI all build from, and :meth:`StorageSpec.build` is the
one place the layers are wired, in the one order::

    metered > caching > [sharded >] [replicated >] resilient > crc > faulty > disk

(metering outermost so it sees every logical read; one cache per store,
above the fan-out and the retries, so a hit never forks and only misses
are guarded; CRC under the cache so hits are not re-verified; faults
below CRC so torn frames are *caught* by the checksum, not simulated).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.errors import StorageError, StorageUnavailable
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
    """Hit/miss/shared/eviction/invalidation counters of a caching
    layer (``shared``: misses served by another call's in-flight read).

    Shares the ``reset``/``snapshot``/``delta`` protocol of
    :class:`repro.obs.stats.StatsBase`, so cache activity can be
    differenced before/after a workload exactly like device I/O.
    Updates happen under the owning cache's lock, so concurrent traffic
    never loses increments.
    """

    hits: int = 0
    misses: int = 0
    shared: int = 0
    evictions: int = 0
    invalidations: int = 0


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


def _group(found) -> BlockGroup:
    """The group of ``(code, payload, length)`` triples ``found``."""
    codes, payloads, lens = zip(*found)
    return BlockGroup(
        np.array(codes, np.intp), list(payloads), np.array(lens, np.intp)
    )


class _InnerRead:
    """One call's inner read of its misses (its *flight*): once
    ``done``, ``entries`` (code -> (payload, length)) or ``error``."""

    __slots__ = ("done", "entries", "error")

    def __init__(self) -> None:
        self.done = False
        self.entries: dict = {}
        self.error: BaseException | None = None


class CachingDevice(DeviceLayer):
    """Fixed-capacity LRU cache middleware: hits are free, misses cost
    one inner read.  A store has one, above its shard fan-out, so a
    group of hits returns on the caller's thread.

    Coherence is an internal invariant: every write enters through
    :meth:`write_many`, which writes through to the inner device and
    then invalidates the cached copies — no weak-ref side channel on
    the leaf.  Cached entries are the inner device's immutable
    payloads (with their lengths), handed to every reader as the one
    shared instance — a cached read copies nothing, hit or miss.

    Recency follows the error tree (§3.2.1): range queries read
    root-to-leaf paths, so a block near the root is shared by every
    query.  Given a ``depth`` table (block code → error-tree depth, the
    allocation's ``block_depth``), a group's blocks become most recent
    *deepest first*, ties in request order — at lookup for the hits, and
    once more for the whole group after its misses are published — so a
    group larger than the cache evicts its own deep blocks before the
    root-ward ones, and later groups evict this group's root-ward blocks
    last.  Without a table the hits are bumped in request order and the
    misses land after them (plain LRU).  Eviction always takes the least
    recent block.

    Thread safety: one lock guards the LRU map, the flight table,
    :class:`PoolStats` and the invalidation generation; the lock is
    *not* held across the inner read a group's misses perform.  That
    opens a window — a payload read before a concurrent write could be
    inserted after that write's invalidation ran — closed by the
    generation gate: every ``invalidate``/``clear`` bumps ``_gen`` and a
    group only publishes its misses if no invalidation happened since
    the read began.  The gate is per store: a write on any shard keeps
    every concurrent read from publishing its misses.

    Single flight (§3.3.1's shared I/O): a miss on a block another call
    is reading waits, on the cache's one condition, for that call's
    payload or exception instead of reading it again; hits never look
    at the flight table.  An invalidation drops the block's flight, so
    only readers that joined before a write share a pre-write read.
    """

    def __init__(self, inner, capacity: int, depth=None) -> None:
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
        self._depth = None if depth is None else np.asarray(depth)
        self._inflight: dict[int, _InnerRead] = {}  # code -> its flight
        self._landed = threading.Condition(self._lock)

    def _occupancy(self) -> float:
        return len(self._cache) / self.capacity

    def _touch(self, codes: list) -> None:
        """Make the cached ones of ``codes`` most recent, in order
        (caller holds the lock)."""
        cache = self._cache
        for code in codes:
            if code in cache:
                cache.move_to_end(code)

    def read_many(self, codes) -> BlockGroup:
        """Cached fetch of a group: the hits, *one* inner read (and one
        gated publish) of the misses no other call is reading, then the
        misses other calls are reading, from their flights — the order
        the group comes back in (hits in request order).

        Hits are served (and made most-recent) before any miss is
        published, so a group never evicts a block it is itself about
        to return; with a depth table the published group is bumped
        once more, deepest first.  A code repeated in ``codes`` is
        looked up, counted and handed back once, hit or miss.  A failed
        inner read publishes nothing, counts no miss and raises here and
        in every call that joined its flight.
        """
        codes = np.asarray(codes, dtype=np.intp)
        ids = list(dict.fromkeys(codes.tolist()))  # first requests, in order
        if len(ids) < len(codes):
            codes = np.array(ids, dtype=np.intp)
        # The order the group becomes most recent in (class docstring).
        recency = ids if self._depth is None else codes[
            np.argsort(-self._depth[codes], kind="stable")
        ].tolist()
        found: list[tuple] = []  # (code, payload, length) of each hit
        miss_at: list[int] = []  # what this call reads, once per code
        mine = _InnerRead()
        joined: dict = {}  # code -> another call's flight
        with self._lock:
            cache, inflight = self._cache, self._inflight
            for at, code in enumerate(ids):
                entry = cache.get(code)
                if entry is not None:
                    found.append((code, *entry))
                    continue
                flight = inflight.get(code)
                if flight is None:
                    inflight[code] = mine
                    miss_at.append(at)
                else:
                    joined[code] = flight
            self._touch(recency)
            hits = len(found)
            self.pool_stats.hits += hits
            gen = self._gen
        # Lead first: the flights registered above land in its finally.
        groups = []
        if miss_at:
            groups.append(self._lead(mine, codes[miss_at], gen, recency))
        if hits:
            obs_counter("storage.pool.hits").inc(hits)
            groups.insert(0, _group(found))
        if joined:
            groups.append(self._join(joined))
        return BlockGroup.join(groups)

    def _lead(self, flight, codes, gen: int, recency: list) -> BlockGroup:
        """Read ``codes`` (this call's misses) as ``flight``, publish
        them unless an invalidation ran since ``gen``, and land the
        flight for its waiters — in a ``finally``, so no waiter is left
        behind whatever the inner read raises."""
        evicted = 0
        try:
            missed = self.inner.read_many(codes)
            flight.entries = dict(zip(missed.codes.tolist(), zip(
                missed.payloads, missed.lens.tolist()
            )))
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                inflight = self._inflight
                for code in codes.tolist():
                    # An invalidation may have handed the code to a
                    # newer flight; that one is not ours to drop.
                    if inflight.get(code) is flight:
                        del inflight[code]
                flight.done = True
                self._landed.notify_all()
                if flight.error is None:
                    self.pool_stats.misses += len(codes)
                    if self._gen == gen:
                        cache = self._cache
                        for code, entry in flight.entries.items():
                            cache.setdefault(code, entry)
                        if self._depth is not None:
                            self._touch(recency)
                        while len(cache) > self.capacity:
                            cache.popitem(last=False)
                            evicted += 1
                        self.pool_stats.evictions += evicted
                    occupancy = self._occupancy()
        obs_counter("storage.pool.misses").inc(len(codes))
        if evicted:
            obs_counter("storage.pool.evictions").inc(evicted)
        obs_gauge("storage.pool.occupancy").set(occupancy)
        return missed

    def _join(self, joined: dict) -> BlockGroup:
        """Wait for the flights other calls lead and take ``joined``'s
        payloads from them, or the first failed leader's exception."""
        flights = joined.values()
        with self._lock:
            self._landed.wait_for(lambda: all(f.done for f in flights))
            errors = [f.error for f in flights if f.error is not None]
            if not errors:
                self.pool_stats.shared += len(joined)
        if errors:
            raise errors[0]
        obs_counter("storage.pool.shared").inc(len(joined))
        return _group(
            (code, *flight.entries[code]) for code, flight in joined.items()
        )

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
        about to publish a pre-write payload — and drops the block's
        flight, so no later reader joins a pre-write read.
        """
        with self._lock:
            self._gen += 1
            # A reader arriving after the write must not join a flight
            # that began before it: it leads a fresh read instead.
            self._inflight.pop(code, None)
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
            self._inflight.clear()
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
            "shared": snap.shared,
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
    :class:`~repro.core.errors.StorageUnavailable`.  Stacked *under*
    the store's cache, so it guards and re-drives only misses; a cached
    block is served while its breaker is open (writes invalidate it).
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
        under the retry/breaker stack.  Every block is tried before the
        first exhaustion is raised, the others attached as ``__notes__``
        (as :meth:`ShardedDevice._fan_out` does across shards), so each
        block is read as often on one shard as on many."""
        codes = np.asarray(codes, dtype=np.intp)
        groups, first = [], None
        for at in range(len(codes)):
            try:
                groups.append(
                    self._caller.call(self.inner.read_many, codes[at:at + 1])
                )
            except StorageUnavailable as exc:
                if first is None:
                    first = exc
                else:
                    first.add_note(f"block {codes[at]} also failed: {exc}")
        if first is not None:
            raise first
        return BlockGroup.join(groups)

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
        name=breaker.name,
    )


@dataclass
class BuiltStorage:
    """Handles into a built storage stack (possibly sharded).

    ``device`` is the outermost :class:`BlockDevice` consumers talk to;
    ``sharded`` the :class:`~repro.storage.sharding.ShardedDevice`
    fan-out layer, or ``None``; ``replica_groups`` the per-shard
    :class:`~repro.storage.replication.ReplicatedDevice` handles, in
    shard order (empty without replicas); ``cache`` the one cache, or
    ``None``.  ``disks``, ``breakers`` and ``faulty`` are flat lists in
    shard-major, member-minor order, one entry per (shard, member)
    sub-stack that has the layer — without replication, one per shard.
    """

    spec: "StorageSpec"
    device: object = None
    sharded: object = None
    cache: CachingDevice | None = None
    replica_groups: list = field(default_factory=list)
    disks: list = field(default_factory=list)
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

        metered > caching > sharded > replicated > resilient > crc > faulty > disk

    with absent features simply dropped from the chain.

    Attributes:
        shards: Number of striped leaf devices (1 = unsharded).
        cache_blocks: Slots of the store's one cache (above the
            shards); ``None`` disables caching.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`;
            every targeted leaf's fault layer holds it itself (its
            decisions are keyed by replica member and block, not by
            shard).
        retry_policy: Optional :class:`~repro.faults.retry.RetryPolicy`
            (stateless — shared across shards).
        breaker: Optional :class:`~repro.faults.breaker.CircuitBreaker`
            template; sharded/replicated stacks clone it per shard and
            per replica member so one failed device trips only its own
            breaker.
        latency: Optional :class:`~repro.storage.latency.LatencyModel`
            every leaf device sleeps through.
        crc: Force CRC framing on/off; ``None`` enables it exactly when
            a fault plan is present.
        fault_shards: Give a fault layer only to these shard indices
            (``None`` = all shards).
        replicas: Replica members per shard on top of the primary
            (0 = unreplicated).  Each member is a full independent
            sub-stack kept in sync by a
            :class:`~repro.storage.replication.ReplicatedDevice`.
        fault_replicas: Give a fault layer only to these member
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

    def _faulted(self, shard: int, member: int) -> bool:
        """Whether the (shard, member) sub-stack gets a fault layer."""
        return self.fault_plan is not None and (
            self.fault_shards is None or shard in self.fault_shards
        ) and (self.fault_replicas is None or member in self.fault_replicas)

    def _member(self, built: BuiltStorage, block_size: int,
                shard: int, member: int):
        """One (shard, member) sub-stack, leaf upward; returns it and
        its breaker (or None).

        Every leaf shares the spec's (stateless) latency model and fault
        plan; the breaker is stateful, so every sub-stack but the
        unsharded primary — which keeps the caller's own — gets one
        cloned from the template.
        """
        # Lazy: repro.faults imports this module for DeviceLayer.
        from repro.faults.plan import FaultyDevice

        breaker = self.breaker
        if breaker is not None and (self.shards > 1 or member > 0):
            breaker = _clone_breaker(breaker)
        disk = SimulatedDisk(block_size=block_size, latency=self.latency)
        built.disks.append(disk)
        device = MeteredDevice(disk, prefix="storage.disk")
        if self._faulted(shard, member):
            device = FaultyDevice(device, plan=self.fault_plan, member=member)
            built.faulty.append(device)
        if self.crc_enabled():
            device = CrcFramedDevice(device)
        if self.retry_policy is not None or breaker is not None:
            device = ResilientDevice(device, self.retry_policy, breaker)
            if breaker is not None:
                built.breakers.append(breaker)
        return device, breaker

    def build(self, block_size: int, placement=None, depth=None) -> BuiltStorage:
        """Build the device stack for a given leaf block size; a sharded
        stack splits by the store's ``placement`` table
        (:func:`~repro.storage.sharding.placement_table`), and the one
        cache wraps it all, ordering recency by the store's ``depth``
        table (``block_depth``; see :class:`CachingDevice`)."""
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
            # Fan-out overlaps device *waits* (latency, fault spikes,
            # retry backoff).  Without one a pool hand-off per shard only
            # costs a thread wake-up, so the width is then 1 (no pool).
            waits = (self.latency, self.fault_plan, self.retry_policy)
            device = built.sharded = ShardedDevice(
                shards, placement,
                fanout_workers=(
                    None if any(w is not None for w in waits) else 1
                ),
            )
        if self.cache_blocks:
            device = built.cache = CachingDevice(
                device, capacity=self.cache_blocks, depth=depth
            )
        built.device = MeteredDevice(device, prefix="storage.device")
        return built
