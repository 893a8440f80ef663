"""A simulated block device: the leaf layer of every device stack.

The storage claims of §3.2 are all statements about *which coefficients
share a disk block* and *how many blocks a query touches* — never about
a specific device.  This simulator therefore models exactly that:
fixed-size blocks addressed by their integer code, with :class:`IOStats`
counters every experiment reads its I/O costs from.

Since the device-stack refactor this class is deliberately dumb: no
cache hooks (coherence lives in
:class:`~repro.storage.device.CachingDevice`), no metrics registry calls
(a :class:`~repro.storage.device.MeteredDevice` directly above the leaf
emits ``storage.disk.*``), no fault logic (middleware), and a payload is
an immutable value — a read-only ``float64`` array of a block's values
(capacity-checked) or a byte frame from a CRC layer above — that is
stored and handed back as the same object, never copied on a read.

A read hands back a :class:`BlockGroup`: codes, payloads and payload
lengths, the lengths from a code-indexed table the leaf keeps.

Thread safety: the block directory, the length table and the
:class:`IOStats` counters are guarded by one device lock, taken once per
group; a group's simulated seeks are waited for as one sleep after the
lock is released, so concurrent callers overlap their seek time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs.stats import StatsBase
from repro.storage.latency import LatencyModel

__all__ = ["BlockGroup", "IOStats", "SimulatedDisk", "frozen_payload"]


class BlockGroup(NamedTuple):
    """What a group read hands back: the block codes read (``intp``, in
    the order the layer hands them back — not always the order asked),
    and each one's payload and payload length, aligned with them."""

    codes: np.ndarray
    payloads: list
    lens: np.ndarray

    @staticmethod
    def join(groups: list) -> "BlockGroup":
        """The groups one after another, as one group."""
        if len(groups) == 1:
            return groups[0]
        none = [np.empty(0, np.intp)]
        return BlockGroup(
            np.concatenate(none + [group.codes for group in groups]),
            [payload for group in groups for payload in group.payloads],
            np.concatenate(none + [group.lens for group in groups]),
        )


def frozen_payload(code: int, items, block_size: int) -> np.ndarray:
    """``items`` as the read-only, contiguous 1-D ``float64`` array a
    block stores.

    Such an array is returned as is; a writable or strided one (or
    another dtype) is copied and the copy frozen, so a caller mutating
    its buffer afterwards cannot reach stored state.  Anything else,
    and an array longer than ``block_size``, is a
    :class:`~repro.core.errors.StorageError`.
    """
    if not isinstance(items, np.ndarray) or items.ndim != 1:
        raise StorageError(
            f"block {code}: a payload is a 1-D float64 array, "
            f"got {type(items).__name__}"
        )
    if len(items) > block_size:
        raise StorageError(
            f"block {code}: {len(items)} items exceed "
            f"block size {block_size}"
        )
    if (items.flags.writeable or items.dtype != np.float64
            or not items.flags.c_contiguous):
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
    """Leaf block device: block code -> payload.

    Payloads are either read-only ``float64`` arrays of a block's
    values — ``block_size`` bounds how many one block may carry,
    mirroring a real device's fixed block capacity — or opaque byte
    frames written by a CRC layer above (stored untouched; capacity is
    then that layer's business).  ``latency`` is an optional
    :class:`~repro.storage.latency.LatencyModel` whose per-read base
    seek time is slept outside the device lock.
    """

    block_size: int
    latency: LatencyModel | None = None
    _blocks: dict[int, object] = field(default_factory=dict)
    io: IOStats = field(default_factory=IOStats)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise StorageError(
                f"block size must be positive, got {self.block_size}"
            )
        # Payload length by code (-1: no block).  Guarded, with the
        # directory and the IOStats counters, by the lock, which is
        # never held while sleeping simulated latency.
        self._lens = np.full(0, -1, dtype=np.intp)
        self._lock = watched_lock("storage.disk")

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def read_many(self, codes) -> BlockGroup:
        """Fetch a group of blocks, in the order asked.

        One directory pass under one lock acquisition, then — the lock
        released — one wait for the sum of the members' simulated seeks
        (:meth:`LatencyModel.wait`).  A missing member is charged like
        the single reads it replaces: the members before it are counted
        and waited for, then the error names it.  The stored (immutable)
        payloads themselves are returned — no copy — with their lengths
        from the length table.
        """
        codes = np.asarray(codes, dtype=np.intp)
        ids = codes.tolist()
        payloads = None
        with self._lock:
            try:
                payloads = list(map(self._blocks.__getitem__, ids))
                done = len(ids)
                lens = self._lens[codes]
            except KeyError as missing:
                done = ids.index(missing.args[0])
            self.io.reads += done
        if self.latency is not None:
            self.latency.wait(done)
        if payloads is None:
            raise StorageError(f"no such block {ids[done]}")
        return BlockGroup(codes, payloads, lens)

    def write_many(self, codes, payloads: list) -> None:
        """Store (or overwrite) a group of blocks in one directory update.

        A stored payload is immutable (:func:`frozen_payload`, applied
        to the whole group before the lock is taken; bytes already are)
        and a later write replaces it, so readers holding the previous
        payload keep a consistent pre-write snapshot.
        """
        codes = np.asarray(codes, dtype=np.intp)
        ids = codes.tolist()
        if ids and min(ids) < 0:
            raise StorageError(f"block codes are non-negative, got {min(ids)}")
        frozen = [
            items if isinstance(items, bytes)
            else frozen_payload(code, items, self.block_size)
            for code, items in zip(ids, payloads, strict=True)
        ]
        lens = np.fromiter(map(len, frozen), dtype=np.intp, count=len(frozen))
        with self._lock:
            if ids and max(ids) >= len(self._lens):
                self._lens = np.append(
                    self._lens, np.full(2 * max(ids) + 1 - len(self._lens), -1)
                )
            self._blocks.update(zip(ids, frozen))
            # A code written twice keeps its last payload: in the
            # directory, and here (assignment runs in order).
            self._lens[codes] = lens
            self.io.writes += len(frozen)

    def has_block(self, code: int) -> bool:
        """Existence check (no I/O charged — directory metadata)."""
        with self._lock:
            return code in self._blocks

    def block_ids(self) -> list[int]:
        """Codes of all allocated blocks (no I/O charged)."""
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
