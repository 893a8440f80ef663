"""A simulated block device: the leaf layer of every device stack.

The storage claims of §3.2 are all statements about *which coefficients
share a disk block* and *how many blocks a query touches* — never about
a specific device.  This simulator therefore models exactly that:
fixed-size blocks addressed by id, with :class:`IOStats` counters every
experiment reads its I/O costs from.

Since the device-stack refactor this class is deliberately dumb: no
cache hooks (coherence lives in
:class:`~repro.storage.device.CachingDevice`), no metrics registry calls
(a :class:`~repro.storage.device.MeteredDevice` directly above the leaf
emits ``storage.disk.*``), no fault logic (middleware), and a payload is
an immutable value — a read-only ``float64`` array of a block's values
(capacity-checked) or a byte frame from a CRC layer above — that is
stored and handed back as the same object, never copied on a read.

Thread safety: the block directory and :class:`IOStats` counters are
guarded by one device lock, taken once per group; a group's simulated
seeks are waited for as one sleep after the lock is released, so
concurrent callers overlap their seek time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs.stats import StatsBase
from repro.storage.latency import LatencyModel

__all__ = ["IOStats", "SimulatedDisk", "frozen_payload"]


def frozen_payload(block_id: Hashable, items, block_size: int) -> np.ndarray:
    """``items`` as the read-only 1-D ``float64`` array a block stores.

    A read-only ``float64`` array is returned as is; a writable one (or
    another dtype) is copied and the copy frozen, so a caller mutating
    its buffer afterwards cannot reach stored state.  Anything else,
    and an array longer than ``block_size``, is a
    :class:`~repro.core.errors.StorageError`.
    """
    if not isinstance(items, np.ndarray) or items.ndim != 1:
        raise StorageError(
            f"block {block_id!r}: a payload is a 1-D float64 array, "
            f"got {type(items).__name__}"
        )
    if len(items) > block_size:
        raise StorageError(
            f"block {block_id!r}: {len(items)} items exceed "
            f"block size {block_size}"
        )
    if items.flags.writeable or items.dtype != np.float64:
        items = items.astype(np.float64)
        items.flags.writeable = False
    return items


@dataclass
class IOStats(StatsBase):
    """Counters for one device (or one measurement interval).

    ``reset``/``snapshot``/``delta`` come from the shared
    :class:`repro.obs.stats.StatsBase` protocol, so device I/O differs
    the same way every other stats bundle does.
    """

    reads: int = 0
    writes: int = 0


@dataclass
class SimulatedDisk:  # lint: ignore[obs-coverage] — deliberately dumb leaf; storage.disk.* metering is the MeteredDevice directly above
    """Leaf block device: block id -> payload.

    Payloads are either read-only ``float64`` arrays of a block's
    values — ``block_size`` bounds how many one block may carry,
    mirroring a real device's fixed block capacity — or opaque byte
    frames written by a CRC layer above (stored untouched; capacity is
    then that layer's business).  ``latency`` is an optional
    :class:`~repro.storage.latency.LatencyModel` whose per-read delay
    (base seek time plus seeded spikes) is slept outside the device
    lock.
    """

    block_size: int
    latency: LatencyModel | None = None
    _blocks: dict[Hashable, object] = field(default_factory=dict)
    io: IOStats = field(default_factory=IOStats)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise StorageError(
                f"block size must be positive, got {self.block_size}"
            )
        # Guards the block directory and the IOStats counters; never
        # held while sleeping simulated latency.
        self._lock = watched_lock("storage.disk")

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def read_many(self, block_ids: Iterable[Hashable]) -> dict:
        """Fetch a group of blocks; returns ``{block_id: payload}``.

        One directory pass under one lock acquisition, then — the lock
        released — one wait for the sum of the members' simulated seeks
        (:meth:`LatencyModel.wait`).  A missing member is charged like
        the single reads it replaces: the members before it are counted
        and waited for, then the error names it.  The stored (immutable)
        payloads themselves are returned — no copy.
        """
        ids = list(block_ids)
        blocks = self._blocks
        out, done = None, len(ids)
        with self._lock:
            try:
                out = {block_id: blocks[block_id] for block_id in ids}
            except KeyError as missing:
                done = ids.index(missing.args[0])
            self.io.reads += done
        if self.latency is not None:
            self.latency.wait(done)
        if out is None:
            raise StorageError(f"no such block {ids[done]!r}")
        return out

    def write_many(self, blocks: dict) -> None:
        """Store (or overwrite) a group of blocks in one directory update.

        A stored payload is immutable (:func:`frozen_payload`, applied
        to the whole group before the lock is taken; bytes already are)
        and a later write replaces it, so readers holding the previous
        payload keep a consistent pre-write snapshot.
        """
        frozen = {
            block_id: items if isinstance(items, bytes)
            else frozen_payload(block_id, items, self.block_size)
            for block_id, items in blocks.items()
        }
        with self._lock:
            self._blocks.update(frozen)
            self.io.writes += len(frozen)

    def has_block(self, block_id: Hashable) -> bool:
        """Existence check (no I/O charged — directory metadata)."""
        with self._lock:
            return block_id in self._blocks

    def block_ids(self) -> list[Hashable]:
        """All allocated block ids (no I/O charged)."""
        with self._lock:
            return list(self._blocks)

    def n_blocks(self) -> int:
        """Number of allocated blocks."""
        return len(self)

    def occupancy(self) -> float:
        """Mean fraction of block item-capacity in use.

        Counts array payloads only; opaque byte frames are scored by
        the CRC layer that knows their item counts.
        """
        with self._lock:
            counted = [
                len(b) for b in self._blocks.values()
                if not isinstance(b, bytes)
            ]
            if not counted:
                return 0.0
            return sum(counted) / (len(counted) * self.block_size)

    def io_totals(self) -> IOStats:
        """Cumulative I/O counters (copy) for before/after differencing."""
        with self._lock:
            return self.io.snapshot()

    def stats(self) -> dict:
        """Leaf-device statistics (innermost entry of a stack report)."""
        with self._lock:
            return {
                "layer": "disk",
                "block_size": self.block_size,
                "blocks": len(self._blocks),
                "reads": self.io.reads,
                "writes": self.io.writes,
            }
