"""Wavelet block stores: the bridge between allocation and queries.

A block store owns a block *device stack*, an allocation, and serves
the one request the query engine makes: "give me these coefficients,
and tell me what it cost".  Two variants:

* :class:`WaveletBlockStore` — 1-D flat-layout coefficient vectors;
* :class:`TensorBlockStore` — multivariate coefficient cubes on
  Cartesian-product blocks.

A block is addressed by its integer *code* (the allocation's
``locate`` hands codes out; ``allocation.block_tuple(code)`` names one
for messages), from the planner down to the leaf device.

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
from repro.storage.disk import BlockGroup, IOStats
from repro.storage.sharding import placement_table

__all__ = ["WaveletBlockStore", "TensorBlockStore"]


class _StoreBase:
    """Device-stack plumbing shared by both block stores."""

    def _init_storage(self, spec: StorageSpec, block_size: int) -> None:
        self.spec = spec
        allocation = self.allocation
        # Placement is tabled once per store: no block ever changes shard.
        self._built = spec.build(block_size, placement_table(
            allocation.n_codes, spec.shards, allocation.block_tuple,
        ) if spec.shards > 1 else None)
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
            self.device.write_many(list(blocks), list(blocks.values()))
        finally:
            self._built.set_injecting(True)

    def shard_of(self, codes):
        """Shard index of each block code (0 when unsharded) — the key
        the scan coordinator's single-flight map uses."""
        return self._built.shard_of(codes)

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
            payloads: Mapping from block code to the full replacement
                payload array for that block.
        """
        with span("storage.store_blocks"):
            obs_histogram(
                "storage.blocks_per_write_batch", DEFAULT_COUNT_BUCKETS
            ).observe(len(payloads))
            self.device.write_many(list(payloads), list(payloads.values()))

    def close(self) -> None:
        """Release storage resources (fan-out pools); idempotent."""
        self._built.close()


class TensorReads:
    """The one coefficient-read kernel every store and store view shares.

    A view supplies ``allocation`` and :meth:`read_many` — how a group
    of block codes is read: the live device stack's ``read_many``, the
    shared-scan view's coalesced single-flight read, an as-of view's
    pre-image-else-live — and inherits :meth:`gather_located`, its key-,
    dict- and set-shaped wrappers and the scalar :meth:`fetch_block`.
    Payloads are arrays of values only; the allocation's ``locate`` says
    where in which array a key — an ``ndim`` multi-index, or a flat
    index on the 1-D store — lives.
    """

    def read_many(self, codes) -> BlockGroup:
        """The view's group read of block ``codes``: the device stack's
        :class:`~repro.storage.disk.BlockGroup`."""
        return self.device.read_many(codes)

    def fetch_blocks(self, codes) -> dict:
        """:meth:`read_many` as a mapping from block code to payload
        (the block's values as a read-only array;
        ``allocation.block_keys`` names them)."""
        with span("storage.fetch_blocks"):
            obs_histogram(
                "storage.blocks_per_batch", DEFAULT_COUNT_BUCKETS
            ).observe(len(codes))
            group = self.read_many(codes)
            return dict(zip(group.codes.tolist(), group.payloads))

    def fetch_block(self, code: int) -> np.ndarray:
        """Fetch one whole block — a batch of one through the view's
        own group read: its values as a read-only array, in
        ``allocation.block_keys(code)`` order."""
        return self.read_many([code]).payloads[0]

    def gather(self, keys) -> np.ndarray:
        """Stored values of the coefficient ``keys``, in key order:
        :meth:`gather_located` of their ``locate``."""
        return self.gather_located(*self.allocation.locate(keys))

    def gather_located(self, codes, slots) -> np.ndarray:
        """Stored values at ``(block code, slot)`` pairs, in order.

        Distinct block codes → one group read of them, sorted → one
        index into the packed payloads.  Python work is per block, never
        per coefficient.
        """
        with span("storage.fetch"):
            allocation = self.allocation
            uniq = allocation.distinct(codes)
            obs_histogram(
                "query.blocks_per_query", DEFAULT_COUNT_BUCKETS
            ).observe(len(uniq))
            buffer, base = allocation.pack(self.read_many(uniq))
            return buffer[base[codes] + slots]

    def block_values(self, code: int, slots) -> np.ndarray:
        """Stored values at ``slots`` of block ``code``, from one
        whole-block read (progressive evaluation's read)."""
        return self.allocation.pack(self.read_many([code]))[0][slots]

    def fetch(self, indices) -> dict[tuple[int, ...], float]:
        """:meth:`gather` as a ``{key tuple: value}`` dictionary."""
        keys = np.asarray(indices, dtype=np.intp)
        return dict(zip(index_tuples(keys), self.gather(keys).tolist()))

    def blocks_for(self, indices) -> set[int]:
        """Codes of the blocks a set of coefficients lives on
        (planning, no I/O)."""
        allocation = self.allocation
        return set(allocation.distinct(allocation.locate(indices)[0]).tolist())


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
        (code,), (slot,) = self.allocation.locate([index])
        block = self.fetch_block(code).copy()
        old = float(block[slot])
        block[slot] = float(value)
        self.device.write_many([code], [block])
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
            code: math.sqrt(np.cumsum(items * items)[-1])
            for code, items in blocks.items()
        }

    @property
    def shape(self) -> tuple[int, ...]:
        """Stored coefficient cube shape."""
        return self.allocation.shape

    @property
    def data_norm(self) -> float:
        """L2 norm of the stored cube (for progressive error bounds)."""
        return self._norm
