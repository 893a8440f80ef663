"""Sharded block device: the first scale-out axis of the storage engine.

:class:`ShardedDevice` stripes blocks across N inner
:class:`~repro.storage.device.BlockDevice` stacks by a placement table
a store builds once (:func:`placement_table`): block ``code`` lives on
shard ``crc32(repr(allocation.block_tuple(code))) mod N``, the same in
every process and every run, and a group splits by one table lookup.

Multi-shard group reads and writes fan out through the device's
persistent worker pool (created on first use), so with per-device
latency a scan costs about ``blocks / shards`` device waits instead of
``blocks`` (the overlap ``tests/test_storage_group_io.py`` counts and
e2e ``cluster_mixed_io``'s ``latency_p50_ms`` measures; on a
:class:`~repro.core.clock.SimClock` it is the slowest shard's).  The
store's cache sits above, so only a group's misses fan out; a group of
one routes directly to the owning shard.

Degradation is per-shard by construction: each shard's sub-stack
carries its own fault plan and circuit breaker
(:class:`~repro.storage.device.StorageSpec` clones the templates), so
one failed shard trips only its own breaker and queries over surviving
shards still answer — surfaced through the query layer's
``QueryOutcome`` degradation path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import repeat

import numpy as np

from repro.core.clock import fork
from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.storage.disk import BlockGroup, IOStats
from repro.storage.placement import place

__all__ = ["ShardedDevice", "placement_table"]


def placement_table(block_ids, n_shards: int) -> np.ndarray:
    """``place(block_id, n_shards)`` of each block id, in code order
    (``allocation.block_tuples()``, or the codes themselves)."""
    return np.fromiter(map(place, block_ids, repeat(n_shards)), dtype=np.intp)


class ShardedDevice:  # lint: ignore[obs-coverage] — pure fan-out; StorageSpec wraps it in a storage.device MeteredDevice
    """N inner block devices behind one :class:`BlockDevice` surface.

    Args:
        devices: The inner devices (typically per-shard middleware
            stacks built by :class:`~repro.storage.device.StorageSpec`),
            in shard order.
        placement: ``placement[code]`` is the shard owning block
            ``code`` (:func:`placement_table`).
        fanout_workers: Pool width for multi-shard reads and writes
            (default ``min(n_shards, 8)``); ``1`` forces sequential
            fan-out, as ``StorageSpec.build`` does with no waiting layer.
    """

    def __init__(
        self, devices, placement, fanout_workers: int | None = None
    ) -> None:
        self.devices = list(devices)
        if not self.devices:
            raise StorageError("a sharded device needs at least one shard")
        sizes = {d.block_size for d in self.devices}
        if len(sizes) != 1:
            raise StorageError(
                f"shards disagree on block size: {sorted(sizes)}"
            )
        self.n_shards = len(self.devices)
        table = np.array([-1] if placement is None else placement, np.intp)
        if table.ndim != 1 or not ((table >= 0) & (table < self.n_shards)).all():
            raise StorageError(
                f"a sharded device needs a placement table: one shard in "
                f"[0, {self.n_shards}) per block code"
            )
        table.flags.writeable = False
        self.placement = table
        if fanout_workers is not None and fanout_workers < 1:
            raise StorageError(
                f"fanout_workers must be >= 1, got {fanout_workers}"
            )
        self.fanout_workers = (
            fanout_workers
            if fanout_workers is not None
            else min(self.n_shards, 8)
        )
        # Persistent fan-out pool, created on first concurrent use.
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = watched_lock("storage.shard_fanout")

    @property
    def block_size(self) -> int:
        """Item capacity of one block (uniform across shards)."""
        return self.devices[0].block_size

    def _split(self, codes: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """The batch I/O coalescer: ``(shard, positions into codes)``
        per shard touched, in shard order — one table lookup and one
        stable argsort, so each shard's members keep the order they
        were asked in (and its fault plan draws in that order)."""
        owners = self.placement[codes]
        order = np.argsort(owners, kind="stable")
        ends = np.cumsum(np.bincount(owners, minlength=self.n_shards))
        groups, start = [], 0
        for shard, end in enumerate(ends.tolist()):
            if end > start:
                groups.append((shard, order[start:end]))
            start = end
        return groups

    def _fanout_pool(self) -> ThreadPoolExecutor:
        """The persistent fan-out pool (created on first concurrent use)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.fanout_workers,
                    thread_name_prefix="shard-read",
                )
            return self._pool

    def _fan_out(self, op: str, groups: list) -> list:
        """Run ``devices[shard].<op>(*args)`` for every ``(shard, args)``
        group; returns the results in group order.

        The first group runs on the calling thread, which would
        otherwise only block on futures; when more than one shard (and
        more than one worker) is involved the rest run on the device's
        persistent worker pool, so per-device latency overlaps.
        Failures propagate only after every group has settled —
        surviving shards' work is never discarded mid-flight — and when
        several groups fail, the first exception is raised with every
        further failure attached as a ``__notes__`` entry, so a
        multi-shard outage is never silently reported as a single-shard
        one.
        """
        calls = [
            partial(getattr(self.devices[shard], op), *args)
            for shard, args in groups
        ]
        if len(calls) > 1 and self.fanout_workers > 1:
            submit = self._fanout_pool().submit
            calls[1:] = [fork(submit, call) for call in calls[1:]]
        results: list = []
        errors: list[tuple[int, Exception]] = []
        for (shard, _), call in zip(groups, calls):
            try:
                results.append(call())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append((shard, exc))
        if errors:
            _, first = errors[0]
            for shard, exc in errors[1:]:
                first.add_note(
                    f"shard {shard} also failed: {type(exc).__name__}: {exc}"
                )
            raise first
        return results

    def read_many(self, codes) -> BlockGroup:
        """Fetch several blocks: one coalesced ``read_many`` per owning
        shard (:meth:`_split`), fanned out by :meth:`_fan_out`; the
        shards' groups come back one after another, in shard order."""
        codes = np.asarray(codes, dtype=np.intp)
        return BlockGroup.join(self._fan_out("read_many", [
            (shard, (codes[at],)) for shard, at in self._split(codes)
        ]))

    def close(self) -> None:
        """Shut down the persistent fan-out pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self) -> None:
        # Best-effort: __init__ may have raised before the pool existed.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            # __del__ only runs once the object is unreachable, so no
            # concurrent writer exists; taking _pool_lock here could
            # deadlock a GC pass firing while the lock is held.
            self._pool = None  # lint: ignore[deep-lockset-race] -- unreachable in __del__
            pool.shutdown(wait=False)

    def write_many(self, codes, payloads: list) -> None:
        """Store several blocks: one coalesced ``write_many`` per owning
        shard, fanned out by :meth:`_fan_out` exactly like the read
        path (so per-device write latency overlaps and surviving
        shards' commits are never abandoned mid-flight)."""
        codes = np.asarray(codes, dtype=np.intp)
        if len(codes) != len(payloads):
            raise StorageError(
                f"{len(codes)} block codes for {len(payloads)} payloads"
            )
        self._fan_out("write_many", [
            (shard, (codes[at], [payloads[i] for i in at.tolist()]))
            for shard, at in self._split(codes)
        ])

    def has_block(self, code: int) -> bool:
        """Existence check on the owning shard."""
        return self.devices[self.placement[code]].has_block(code)

    def block_ids(self) -> list:
        """Codes of all allocated blocks, shard by shard."""
        out: list = []
        for device in self.devices:
            out.extend(device.block_ids())
        return out

    def n_blocks(self) -> int:
        """Total allocated blocks across all shards."""
        return sum(device.n_blocks() for device in self.devices)

    def occupancy(self) -> float:
        """Block-count-weighted mean occupancy across shards."""
        weighted = 0.0
        total = 0
        for device in self.devices:
            n = device.n_blocks()
            weighted += device.occupancy() * n
            total += n
        return weighted / total if total else 0.0

    def io_totals(self) -> IOStats:
        """Summed leaf I/O counters across all shards (copy)."""
        totals = IOStats()
        for device in self.devices:
            shard_io = device.io_totals()
            totals.reads += shard_io.reads
            totals.writes += shard_io.writes
        return totals

    def stats(self) -> dict:
        """Aggregate view plus every shard's nested layer statistics."""
        io = self.io_totals()
        return {
            "layer": "sharded",
            "shards": self.n_shards,
            "placement": "crc32(repr(block id)) % shards, tabled by code",
            "fanout_workers": self.fanout_workers,
            "blocks": self.n_blocks(),
            "io": {"reads": io.reads, "writes": io.writes},
            "per_shard": [device.stats() for device in self.devices],
        }

    def __len__(self) -> int:
        return self.n_blocks()
