"""The wavelet block store: the bridge between allocation and queries.

A :class:`TensorBlockStore` owns a block *device stack* and a
:class:`~repro.storage.allocation.TensorAllocation` of a coefficient
cube on Cartesian-product blocks, and serves the one request the query
engine makes: "give me these coefficients, and tell me what it cost".
A 1-D signal is a one-axis cube
(:class:`~repro.storage.retrieval.SignalArchive`).

A block is addressed by its integer *code* (the allocation's
``locate`` hands codes out; ``allocation.block_tuple(code)`` names one
for messages), from the planner down to the leaf device.

Storage configuration is declarative: the store takes a
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
from repro.core.reduce import dot
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.storage.allocation import TensorAllocation, index_tuples
from repro.storage.device import StorageSpec
from repro.storage.disk import BlockGroup, IOStats
from repro.storage.sharding import placement_table

__all__ = ["TensorBlockStore"]


class TensorReads:
    """The one coefficient-read kernel every store and store view shares.

    A view supplies ``allocation`` and :meth:`read_many` — how a group
    of block codes is read: the live device stack's ``read_many``, the
    shared-scan view's coalesced single-flight read, an as-of view's
    pre-image-else-live — and inherits :meth:`gather_located`, its key-,
    dict- and set-shaped wrappers and the scalar :meth:`fetch_block`.
    Payloads are arrays of values only; the allocation's ``locate`` says
    where in which array a key — an ``ndim`` multi-index — lives.
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


class TensorBlockStore(TensorReads):
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
        self.spec = spec = storage or StorageSpec()
        # Placement is tabled once per store: no block ever changes shard.
        # The depth table orders the cache's recency by the error tree.
        self._built = spec.build(allocation.block_capacity, placement_table(
            allocation.n_codes, spec.shards, allocation.block_tuple,
        ) if spec.shards > 1 else None, allocation.block_depth)
        self.device = self._built.device
        #: The breaker template from the spec (unsharded stacks use it
        #: directly); per-shard breakers live in :attr:`breakers`.
        self.breaker = spec.breaker
        self.breakers = self._built.breakers
        #: The store's one caching layer, above the shard fan-out
        #: (``None`` when the spec disables caching) — benchmarks clear
        #: it between runs and difference its ``pool_stats``.
        self.cache = self._built.cache
        blocks = allocation.build_blocks(cube)
        # Initial population models in-memory construction, not live
        # traffic: injection starts only once the store is serving.
        self._built.set_injecting(False)
        try:
            self.device.write_many(list(blocks), list(blocks.values()))
        finally:
            self._built.set_injecting(True)
        #: Per-block L2 norms, ``sqrt(dot(payload, payload))`` in code
        #: order; the engine's progressive bounds read them, and every
        #: write path keeps them current by the same formula.
        self.block_norms = {
            code: math.sqrt(dot(items, items)) for code, items in blocks.items()
        }

    @property
    def shape(self) -> tuple[int, ...]:
        """Stored coefficient cube shape."""
        return self.allocation.shape

    @property
    def data_norm(self) -> float:
        """L2 norm of the stored coefficients, from :attr:`block_norms`:
        the same bits however often a block is rewritten with its own
        values."""
        norms = np.fromiter(self.block_norms.values(), float)
        return math.sqrt(dot(norms, norms))

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
        single ``write_many``: the store's cache writes it through and
        invalidates every code, the sharded device splits it into one
        write per shard group on its persistent fan-out pool, and CRC
        framing is applied per member by the middleware stack.

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
