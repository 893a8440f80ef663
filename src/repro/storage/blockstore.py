"""Wavelet block stores: the bridge between allocation and queries.

A block store owns a block *device stack*, an allocation, and serves
the one request the query engine makes: "give me these coefficients,
and tell me what it cost".  Two variants:

* :class:`WaveletBlockStore` — 1-D flat-layout coefficient vectors;
* :class:`TensorBlockStore` — multivariate coefficient cubes on
  Cartesian-product blocks.

Storage configuration is declarative: both stores take a
:class:`~repro.storage.device.StorageSpec` (shards, cache, CRC
framing, fault injection, retry/breaker resilience, simulated latency)
and build the canonical middleware stack from it — caching,
corruption detection, retries and fault injection are all the *device's*
layers, not special cases inside the store.  The default spec is the
bare metered disk, whose construction and reads are exactly the
pre-resilience code path (regression-tested to be bitwise-identical).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import StorageError
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.storage.allocation import (
    Allocation,
    TensorAllocation,
    index_tuples,
)
from repro.storage.device import StorageSpec
from repro.storage.disk import IOStats

__all__ = ["WaveletBlockStore", "TensorBlockStore"]


class _StoreBase:
    """Device-stack plumbing shared by both block stores."""

    def _init_storage(self, spec: StorageSpec, block_size: int) -> None:
        self.spec = spec
        self._built = spec.build(block_size)
        self.device = self._built.device
        #: The breaker template from the spec (unsharded stacks use it
        #: directly); per-shard breakers live in :attr:`breakers`.
        self.breaker = spec.breaker
        self.breakers = self._built.breakers
        #: Every caching layer, shard-major then member-minor (empty
        #: when the spec disables caching) — benchmarks clear these
        #: between runs and difference their ``pool_stats``.
        self.caches = self._built.caches

    def _populate(self, blocks: dict) -> None:
        # Initial population models in-memory construction, not live
        # traffic: injection starts only once the store is serving.
        self._built.set_injecting(False)
        try:
            self.device.write_many(blocks)
        finally:
            self._built.set_injecting(True)

    def shard_of(self, block_id) -> int:
        """Shard index a block id is placed on (0 when unsharded) —
        the key the scan coordinator's single-flight map uses."""
        return self._built.shard_of(block_id)

    def set_injecting(self, flag: bool) -> None:
        """Toggle fault injection on every shard's faulty layer (chaos
        drills heal storage this way; no-op without a fault plan)."""
        self._built.set_injecting(flag)

    def storage_stats(self) -> dict:
        """Nested per-layer statistics of the whole device stack."""
        return self.device.stats()

    def io_snapshot(self) -> IOStats:
        """Current leaf I/O counters (copy, summed across shards) for
        before/after differencing."""
        return self.device.io_totals()

    def io_since(self, before: IOStats) -> IOStats:
        """Leaf I/O performed since ``before`` was snapshotted."""
        return self.device.io_totals().delta(before)

    def fetch_blocks(self, block_ids: list) -> dict:
        """Bulk block fetch: one coalesced device read for many blocks.

        The batch evaluator's I/O entry point — the whole batch's block
        set goes down as a single ``read_many``, which the sharded
        device splits into one read per shard group on its persistent
        fan-out pool.

        Args:
            block_ids: Blocks to read (deduplicated by the caller).

        Returns:
            Mapping from block id to block payload (the block's values
            as a read-only array; ``allocation.block_keys`` names them).
        """
        with span("storage.fetch_blocks"):
            ids = list(block_ids)
            obs_histogram(
                "storage.blocks_per_batch", DEFAULT_COUNT_BUCKETS
            ).observe(len(ids))
            if not ids:
                return {}
            return self.device.read_many(ids)

    def store_blocks(self, payloads: dict) -> None:
        """Group-commit block write: one coalesced device write for many
        blocks.

        The batch inserter's I/O exit point and the write-side twin of
        :meth:`fetch_blocks` — a whole batch's dirty blocks go down as a
        single ``write_many``, which the sharded device splits into one
        write per shard group on its persistent fan-out pool, with cache
        invalidation and CRC framing applied per member by the
        middleware stack.

        Args:
            payloads: Mapping from block id to the full replacement
                payload array for that block.
        """
        with span("storage.store_blocks"):
            obs_histogram(
                "storage.blocks_per_write_batch", DEFAULT_COUNT_BUCKETS
            ).observe(len(payloads))
            if not payloads:
                return
            self.device.write_many(payloads)

    def close(self) -> None:
        """Release storage resources (fan-out pools); idempotent."""
        self._built.close()


class TensorReads:
    """The one coefficient-read kernel every store and store view shares.

    A view supplies ``allocation`` and :meth:`_read_blocks` — how a
    sorted list of block ids is read: the live device's ``read_many``,
    the shared-scan view's coalesced single-flight fetch, an as-of
    view's pre-image-else-live — and inherits :meth:`gather_located`,
    its key-, dict- and set-shaped wrappers and the scalar
    :meth:`fetch_block`.  Payloads are arrays of values only; the
    allocation's ``locate`` says where in which array a key — an
    ``ndim`` multi-index, or a flat index on the 1-D store — lives.
    """

    def _read_blocks(self, block_ids: list) -> dict:
        """Payloads of ``block_ids`` (sorted, distinct), keyed by id."""
        return self.device.read_many(block_ids)

    def fetch_block(self, block_id) -> np.ndarray:
        """Fetch one whole block — a batch of one through the view's
        own block read: its values as a read-only array, in
        ``allocation.block_keys(block_id)`` order."""
        return self._read_blocks([block_id])[block_id]

    def gather(self, keys) -> np.ndarray:
        """Stored values of the coefficient ``keys``, in key order:
        :meth:`gather_located` of their ``locate``."""
        return self.gather_located(*self.allocation.locate(keys))

    def gather_located(self, codes, slots) -> np.ndarray:
        """Stored values at ``(block code, slot)`` pairs, in order.

        Distinct block codes → one sorted block read → one index into
        the concatenated payloads.  Python work is per block, never
        per coefficient.
        """
        with span("storage.fetch"):
            allocation = self.allocation
            uniq = allocation.distinct(codes)
            needed = allocation.block_ids(uniq)
            obs_histogram(
                "query.blocks_per_query", DEFAULT_COUNT_BUCKETS
            ).observe(len(needed))
            buffer, base = allocation.pack(
                uniq, needed, self._read_blocks(needed)
            )
            return buffer[base[codes] + slots]

    def block_values(self, code, block_id, slots) -> np.ndarray:
        """Stored values at ``slots`` of the block with code ``code``
        and id ``block_id``, from one whole-block fetch (progressive
        evaluation's read)."""
        payloads = {block_id: self.fetch_block(block_id)}
        return self.allocation.pack([code], [block_id], payloads)[0][slots]

    def fetch(self, indices) -> dict[tuple[int, ...], float]:
        """:meth:`gather` as a ``{key tuple: value}`` dictionary."""
        keys = np.asarray(indices, dtype=np.intp)
        return dict(zip(index_tuples(keys), self.gather(keys).tolist()))

    def blocks_for(self, indices) -> set[tuple[int, ...]]:
        """Blocks a set of coefficients lives on (planning, no I/O)."""
        allocation = self.allocation
        codes = allocation.distinct(allocation.locate(indices)[0])
        return set(allocation.block_ids(codes))


class WaveletBlockStore(TensorReads, _StoreBase):
    """1-D wavelet coefficients on a device stack, under an allocation."""

    def __init__(
        self,
        flat: np.ndarray,
        allocation: Allocation,
        storage: StorageSpec | None = None,
    ) -> None:
        values = np.asarray(flat, dtype=float)
        if values.size != allocation.n:
            raise StorageError(
                f"coefficient count {values.size} != allocation size "
                f"{allocation.n}"
            )
        self.allocation = allocation
        self._init_storage(storage or StorageSpec(), allocation.block_size)
        self._populate(allocation.build_blocks(values))
        self._norm = float(np.linalg.norm(values))

    @property
    def n(self) -> int:
        """Number of stored coefficients."""
        return self.allocation.n

    @property
    def data_norm(self) -> float:
        """L2 norm of the stored vector — recorded at population time and
        used by the progressive evaluator's Cauchy–Schwarz error bound."""
        return self._norm

    def fetch(self, indices: list[int] | set[int]) -> dict[int, float]:
        """Fetch the requested coefficients, reading whole blocks
        (:meth:`gather` as an ``{index: value}`` dictionary)."""
        idx = np.fromiter(indices, dtype=np.intp, count=len(indices))
        return dict(zip(idx.tolist(), self.gather(idx).tolist()))

    def update(self, index: int, value: float) -> None:
        """Overwrite one coefficient (read-modify-write of its block).

        Cache coherence is automatic: the write enters through the
        stack, so the caching layer invalidates its copy itself.
        """
        (block_id,), (slot,) = self.allocation.locate([index])
        block_id = int(block_id)
        block = self.fetch_block(block_id).copy()
        old = float(block[slot])
        block[slot] = float(value)
        self.device.write_many({block_id: block})
        self._norm = float(
            np.sqrt(max(0.0, self._norm**2 - old**2 + float(value) ** 2))
        )


class TensorBlockStore(TensorReads, _StoreBase):
    """Multivariate coefficient cube on Cartesian-product blocks."""

    def __init__(
        self,
        coeffs: np.ndarray,
        allocation: TensorAllocation,
        storage: StorageSpec | None = None,
    ) -> None:
        cube = np.asarray(coeffs, dtype=float)
        if cube.shape != allocation.shape:
            raise StorageError(
                f"cube shape {cube.shape} != allocation shape "
                f"{allocation.shape}"
            )
        self.allocation = allocation
        self._init_storage(
            storage or StorageSpec(), allocation.block_capacity
        )
        blocks = allocation.build_blocks(cube)
        self._populate(blocks)
        self._norm = float(np.linalg.norm(cube.ravel()))
        #: Per-block L2 norms, taken from the same pass that populated
        #: the device; the engine's progressive bounds read them and its
        #: batch inserter keeps them current.  ``cumsum`` adds strictly
        #: left to right on every interpreter (builtin ``sum`` over
        #: floats is compensated from CPython 3.12 on).
        self.block_norms = {
            block_id: math.sqrt(np.cumsum(items * items)[-1])
            for block_id, items in blocks.items()
        }

    @property
    def shape(self) -> tuple[int, ...]:
        """Stored coefficient cube shape."""
        return self.allocation.shape

    @property
    def data_norm(self) -> float:
        """L2 norm of the stored cube (for progressive error bounds)."""
        return self._norm
