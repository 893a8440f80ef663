"""Epoch-versioned wavelet blocks: time-travel reads over a live store.

The AIMS workload is "store once, re-analyze many times" — but every
append mutates the shared coefficient cube in place, so until now a
query could only see the *current* state.  This module adds the
versioning half of the session record/replay story:

* :class:`EpochLog` — a per-engine **pre-image undo log**.  Epoch 0 is
  the populated snapshot; every committed batch append bumps the epoch
  and records, for each touched block, the full payload *before* the
  commit plus the block's prior norm.  Pre-images (not arithmetic
  deltas) are what make reconstruction **bitwise**-exact: float
  subtraction is not an exact inverse of float addition, but the
  stored payload is — and payloads are immutable, so the log keeps
  the very object the device held, not a copy.
* :class:`AsOfStore` — a read-only block-store view that serves every
  block *as of* a chosen epoch: blocks some later epoch touched come
  straight from their logged pre-image (zero device I/O — history is
  immutable), untouched blocks fall through to the live store (so a
  live outage degrades an as-of answer exactly the way it degrades a
  live one, keeping historical answers auditable rather than
  fictitious).

Write amplification is bounded by what the workload touches: a commit
over ``k`` blocks logs ``k`` pre-images, and :meth:`EpochLog.prune`
(plus the ``retain`` auto-pruning knob) implements the retention/
compaction runbook in ``docs/OPERATIONS.md``.

Metrics (the ``epoch.*`` family in DESIGN.md's catalogue):
``epoch.current`` / ``epoch.retained`` gauges, ``epoch.commits`` /
``epoch.blocks_recorded`` / ``epoch.as_of_queries`` /
``epoch.pruned`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import histogram as obs_histogram
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.storage.blockstore import TensorReads
from repro.storage.disk import BlockGroup

__all__ = ["AsOfStore", "EpochLog", "EpochRecord"]


@dataclass(frozen=True)
class EpochRecord:
    """One committed epoch: the pre-images its commit overwrote.

    Attributes:
        epoch: The epoch this commit *created* (so the pre-images are
            the touched blocks' payloads at ``epoch - 1``).
        preimages: ``block code -> payload array`` as it was
            immediately before the commit.
        prior_norms: ``block code -> L2 norm`` of the pre-image payloads
            (the progressive evaluator's error bounds need per-block
            norms as of the queried epoch).
        points: How many appended points the commit carried.
    """

    epoch: int
    preimages: dict = field(repr=False)
    prior_norms: dict = field(repr=False)
    points: int = 0


class EpochLog:
    """Append-only undo log of block pre-images, one record per commit.

    Attached to a :class:`~repro.query.propolyne.ProPolyneEngine` by
    :meth:`~repro.query.propolyne.ProPolyneEngine.enable_versioning`;
    the :class:`~repro.query.ingest.BatchInserter` feeds it (under the
    engine's update lock, so epoch numbers are serialized with the
    commits they describe) and :class:`AsOfStore` reads it.

    Reconstruction rule: block ``B`` as of epoch ``e`` is the pre-image
    recorded by the *earliest* epoch ``> e`` that touched ``B``; if no
    later epoch touched it, the live payload is already the historical
    one.

    Args:
        retain: Keep at most this many most-recent epochs
            reconstructable (``None`` = unbounded).  Older records are
            pruned automatically after each commit, raising
            :attr:`floor`.
    """

    def __init__(self, retain: int | None = None) -> None:
        if retain is not None and retain < 1:
            raise StorageError(f"retain must be >= 1, got {retain}")
        self.retain = retain
        self._records: list[EpochRecord] = []
        self._lock = watched_lock("storage.epochs")
        #: Current epoch: 0 until the first commit is recorded.
        self.current = 0
        #: Oldest epoch still reconstructable (pruning raises it).
        self.floor = 0
        #: Total pre-image blocks held across all retained records.
        self.blocks_recorded = 0

    # -- write side (called by BatchInserter under the update lock) -----

    def record_commit(
        self, preimages: dict, prior_norms: dict, points: int = 0
    ) -> int:
        """Record one committed batch append; returns the new epoch.

        Args:
            preimages: ``block code -> payload`` as read *before* the
                commit replaced them (immutable, so stored as given).
            prior_norms: ``block code -> norm`` before the commit.
            points: Appended points in the commit (for audit stats).
        """
        with self._lock:
            self.current += 1
            record = EpochRecord(
                epoch=self.current,
                preimages=preimages,
                prior_norms=prior_norms,
                points=points,
            )
            self._records.append(record)
            self.blocks_recorded += len(preimages)
            epoch = self.current
        obs_counter("epoch.commits").inc()
        obs_counter("epoch.blocks_recorded").inc(len(preimages))
        obs_histogram(
            "epoch.blocks_per_commit", DEFAULT_COUNT_BUCKETS
        ).observe(len(preimages))
        obs_gauge("epoch.current").set(epoch)
        if self.retain is not None and epoch - self.retain > self.floor:
            self.prune(epoch - self.retain)
        return epoch

    # -- read side -------------------------------------------------------

    def check_epoch(self, epoch: int) -> int:
        """Validate an as-of target against ``[floor, current]``."""
        epoch = int(epoch)
        with self._lock:
            floor, current = self.floor, self.current
        if not floor <= epoch <= current:
            raise StorageError(
                f"epoch {epoch} not reconstructable: retained range is "
                f"[{floor}, {current}]"
            )
        return epoch

    def preimage_as_of(self, code: int, epoch: int):
        """Pre-image payload of block ``code`` as of ``epoch``, or ``None``.

        ``None`` means no retained epoch after ``epoch`` touched the
        block, i.e. the live payload *is* the historical one.
        """
        with self._lock:
            for record in self._records:
                if record.epoch > epoch and code in record.preimages:
                    return record.preimages[code]
        return None

    def norms_as_of(self, epoch: int, current_norms: dict) -> dict:
        """Per-block norms as of ``epoch``, given the live norm table.

        Starts from a copy of ``current_norms`` and overwrites each
        block touched after ``epoch`` with the prior norm recorded by
        the earliest such epoch (mirroring :meth:`preimage_as_of`).
        """
        out = dict(current_norms)
        seen: set = set()
        with self._lock:
            for record in self._records:
                if record.epoch <= epoch:
                    continue
                for code, norm in record.prior_norms.items():
                    if code not in seen:
                        out[code] = norm
                        seen.add(code)
        return out

    # -- retention -------------------------------------------------------

    def prune(self, min_epoch: int) -> int:
        """Drop the ability to reconstruct epochs below ``min_epoch``.

        Records with ``epoch <= min_epoch`` are only needed to rebuild
        states *older* than ``min_epoch``, so they are discarded and
        :attr:`floor` rises.  Returns the number of records dropped.
        """
        with self._lock:
            min_epoch = min(int(min_epoch), self.current)
            keep = [r for r in self._records if r.epoch > min_epoch]
            dropped = len(self._records) - len(keep)
            if min_epoch > self.floor:
                self.floor = min_epoch
            if dropped:
                self.blocks_recorded = sum(
                    len(r.preimages) for r in keep
                )
                self._records = keep
            retained = self.current - self.floor
        if dropped:
            obs_counter("epoch.pruned").inc(dropped)
        obs_gauge("epoch.retained").set(retained)
        return dropped

    def stats(self) -> dict:
        """Snapshot: current epoch, floor, records and pre-image blocks
        retained, total points across retained commits."""
        with self._lock:
            return {
                "current": self.current,
                "floor": self.floor,
                "records": len(self._records),
                "blocks_recorded": self.blocks_recorded,
                "points": sum(r.points for r in self._records),
            }


class AsOfStore(TensorReads):
    """Read-only block-store view pinned to one epoch.

    Serves block reads (``read_many``, the shared
    :class:`~repro.storage.blockstore.TensorReads` kernel's group read,
    so ``fetch_blocks``, ``fetch_block`` and ``gather`` too) as of that
    epoch;
    everything else (``allocation``, ``shard_of``, ``breakers``, ...)
    delegates to the wrapped store, which may itself be a
    :class:`~repro.query.service.SharedScanStore`
    — as-of reads that fall through to live storage still coalesce and
    single-flight.

    Blocks a later epoch touched are served from their logged
    pre-image with **zero device I/O**; only never-again-touched blocks
    hit the live device, so a dead shard degrades an as-of answer the
    same honest way it degrades a live one.
    """

    def __init__(self, store, log: EpochLog, epoch: int) -> None:
        self._store = store
        self._log = log
        self.epoch = log.check_epoch(epoch)

    def __getattr__(self, name: str):
        """Delegate every non-read attribute to the wrapped store."""
        return getattr(self._store, name)

    def read_many(self, codes) -> BlockGroup:
        """Group read as of the pinned epoch.

        Logged blocks come from pre-images (first in the group); the
        rest go down as one coalesced live read (the wrapped store's
        group read).
        """
        logged, live = {}, []
        for code in np.asarray(codes, dtype=np.intp).tolist():
            preimage = self._log.preimage_as_of(code, self.epoch)
            if preimage is None:
                live.append(code)
            else:
                logged[code] = preimage
        groups = [self._store.read_many(live)] if live else []
        if logged:
            obs_counter("epoch.preimage_reads").inc(len(logged))
            groups.insert(0, BlockGroup(
                np.array(list(logged), dtype=np.intp), list(logged.values()),
                np.array([len(p) for p in logged.values()], dtype=np.intp),
            ))
        return BlockGroup.join(groups)

    def store_blocks(self, payloads: dict) -> None:
        """Refused: as-of views are frozen history (route writes to the
        live store)."""
        raise StorageError(
            f"store pinned to epoch {self.epoch} is read-only"
        )
