"""Wavelet-coefficient-to-disk-block allocation strategies (§3.2.1).

The paper's storage question: "is there a way we can store wavelet data to
create a principle of locality of reference?"  Its answer: for point and
range queries "if a wavelet coefficient is retrieved, we are guaranteed
that all of its dependent coefficients will also be retrieved" — queries
fetch root-to-leaf *paths* of the error tree — and the right allocation is
an *optimal tiling of the one-dimensional wavelet error tree*, with
multivariate allocations formed as "Cartesian products of these virtual
blocks".

This module implements that tiling plus the baselines it must beat, and
the paper's success metric: for blocks of size B, the expected number of
needed items per retrieved block, with theoretical ceiling ``1 + lg B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.errors import StorageError
from repro.wavelets.dwt import is_power_of_two
from repro.wavelets.errortree import leaf_path, range_support

__all__ = [
    "Allocation",
    "sequential_allocation",
    "random_allocation",
    "depth_first_allocation",
    "subtree_tiling_allocation",
    "utilization_bound",
    "measure_utilization",
    "TensorAllocation",
    "index_tuples",
    "product_keys",
]


def index_tuples(keys: np.ndarray) -> list[tuple[int, ...]]:
    """Rows of an ``(N, ndim)`` index array as tuples of Python ints —
    the key shape block payloads and entry dictionaries use."""
    return list(zip(*keys.T.tolist()))


def product_keys(axis_indices) -> np.ndarray:
    """``(N, ndim)`` keys of the prefix-major Cartesian product of one
    index array per axis."""
    grid = np.meshgrid(*axis_indices, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, len(axis_indices))


class _Packing:
    """Payload packing shared by both allocations, on top of their
    ``block_len`` / ``n_codes`` / ``block_tuple``."""

    def distinct(self, codes) -> np.ndarray:
        """Sorted distinct block codes of ``codes``, from a presence
        table over the block grid — no sort."""
        present = np.zeros(self.n_codes, dtype=bool)
        present[codes] = True
        return np.flatnonzero(present)

    def pack(self, group) -> tuple[np.ndarray, np.ndarray]:
        """A read's payloads (a :class:`~repro.storage.disk.BlockGroup`)
        back to back in one buffer, in the order the group holds them.

        Returns ``(buffer, base)``: what ``locate`` puts at ``(code,
        slot)`` sits at ``buffer[base[code] + slot]``; the buffer is
        read-only.  A payload whose length (the group's ``lens``) is not
        ``block_len`` of its block raises
        :class:`~repro.core.errors.StorageError` naming the block.
        """
        codes, payloads, lens = group
        want = self.block_len(codes)
        bad = np.flatnonzero(lens != want)
        if bad.size:
            b = int(bad[0])
            code = int(codes[b])
            raise StorageError(
                f"block {self.block_tuple(code)!r} (code {code}) holds "
                f"{int(lens[b])} values, its allocation gives it "
                f"{int(want[b])}"
            )
        base = np.zeros(self.n_codes, dtype=np.intp)
        base[codes] = np.cumsum(lens) - lens
        # Payloads are contiguous float64 (``frozen_payload``): joining
        # their bytes is half the time of a per-block ``np.concatenate``.
        return np.frombuffer(b"".join(payloads)), base


def _group(values: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, list]:
    """``values`` grouped by block code: the distinct codes in
    first-touched order and, for each, the read-only array of its
    members' values in input order."""
    uniq, first, counts = np.unique(
        codes, return_index=True, return_counts=True
    )
    packed = values[np.argsort(codes, kind="stable")]
    packed.flags.writeable = False
    parts = np.split(packed, np.cumsum(counts)[:-1])
    order = np.argsort(first)
    return uniq[order], [parts[b] for b in order.tolist()]


@dataclass(frozen=True)
class Allocation(_Packing):
    """A mapping from flat coefficient index to block id.

    A block's payload is the 1-D array of its members' values in
    increasing-index order, so a coefficient is addressed by
    ``(block_of[i], slot_of[i])`` and keys are never stored.

    Attributes:
        name: Strategy name (for reports).
        block_of: ``block_of[i]`` is the block holding coefficient ``i``.
        block_size: Capacity B the allocation was built for.
    """

    name: str
    block_of: np.ndarray
    block_size: int

    @property
    def n(self) -> int:
        """Number of coefficients allocated."""
        return int(self.block_of.size)

    @property
    def n_blocks(self) -> int:
        """Number of distinct blocks used."""
        return int(np.count_nonzero(self.block_counts))

    @cached_property
    def block_counts(self) -> np.ndarray:
        """``block_counts[b]``: how many coefficients block ``b`` holds."""
        return np.bincount(self.block_of)

    @cached_property
    def slot_of(self) -> np.ndarray:
        """``slot_of[i]``: rank of coefficient ``i`` among its block's
        members, i.e. its position in the block's payload array."""
        order = np.argsort(self.block_of, kind="stable")
        counts = self.block_counts[np.flatnonzero(self.block_counts)]
        slots = np.empty(self.n, dtype=np.intp)
        slots[order] = np.arange(self.n) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return slots

    def locate(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Block ids and in-block slots of flat coefficient ``indices``;
        out-of-range indices raise
        :class:`~repro.core.errors.StorageError`."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise StorageError(
                f"coefficient index outside allocation size {self.n}"
            )
        return self.block_of[idx], self.slot_of[idx]

    @property
    def n_codes(self) -> int:
        """Block ids lie in ``[0, n_codes)``."""
        return len(self.block_counts)

    def block_len(self, codes) -> np.ndarray:
        """Member count of each block."""
        return self.block_counts[codes]

    def block_tuple(self, code: int) -> int:
        """A 1-D block's id, for messages and placement: its code."""
        return int(code)

    def blocks_for(self, indices: set[int] | list[int]) -> set[int]:
        """Blocks that must be fetched to obtain ``indices``."""
        idx = np.fromiter(indices, dtype=np.intp, count=len(indices))
        return set(self.distinct(self.locate(idx)[0]).tolist())

    def block_keys(self, code: int) -> np.ndarray:
        """Coefficient indices of one block, in payload order."""
        return np.flatnonzero(self.block_of == code)

    def build_blocks(self, flat: np.ndarray) -> dict[int, np.ndarray]:
        """Group a flat coefficient vector into block payloads by code
        (read-only arrays, blocks in first-touched order)."""
        values = np.asarray(flat, dtype=float)
        if values.size != self.n:
            raise StorageError(
                f"coefficient vector length {values.size} != allocation "
                f"size {self.n}"
            )
        oversize = np.flatnonzero(self.block_counts > self.block_size)
        if oversize.size:
            raise StorageError(
                f"allocation {self.name!r} overfills blocks "
                f"{oversize[:3].tolist()}"
            )
        codes, parts = _group(values, self.block_of)
        return dict(zip(codes.tolist(), parts))


def _check(n: int, block_size: int) -> None:
    if not is_power_of_two(n):
        raise StorageError(f"coefficient count must be a power of two, got {n}")
    if block_size < 2:
        raise StorageError(f"block size must be >= 2, got {block_size}")


def sequential_allocation(n: int, block_size: int) -> Allocation:
    """Flat-layout order: block ``i // B``.

    Because the flat layout is level-ordered, this is also the
    "level-order" baseline: each block holds consecutive coefficients of
    (mostly) one resolution level.
    """
    _check(n, block_size)
    return Allocation(
        name="sequential",
        block_of=np.arange(n) // block_size,
        block_size=block_size,
    )


def random_allocation(
    n: int, block_size: int, rng: np.random.Generator
) -> Allocation:
    """Coefficients shuffled into blocks — the no-locality straw man."""
    _check(n, block_size)
    perm = rng.permutation(n)
    block_of = np.empty(n, dtype=int)
    block_of[perm] = np.arange(n) // block_size
    return Allocation(name="random", block_of=block_of, block_size=block_size)


def depth_first_allocation(n: int, block_size: int) -> Allocation:
    """Pack coefficients in error-tree depth-first (pre-)order.

    A DFS visit order keeps each leaf's path partially contiguous — a
    natural competitor to proper tiling that the experiment shows is still
    worse, because deep-tree prefixes of many leaves share few blocks.
    """
    _check(n, block_size)
    order: list[int] = [0]

    def visit(node: int) -> None:
        order.append(node)
        for child in (2 * node, 2 * node + 1):
            if node >= 1 and child < n:
                visit(child)

    if n > 1:
        visit(1)
    block_of = np.empty(n, dtype=int)
    for position, node in enumerate(order):
        block_of[node] = position // block_size
    return Allocation(
        name="depth_first", block_of=block_of, block_size=block_size
    )


def subtree_tiling_allocation(n: int, block_size: int) -> Allocation:
    """The paper's optimal tiling: perfect subtrees of height ``lg(B+1)``.

    The detail tree (nodes >= 1) is cut into perfect subtrees of height
    ``h = floor(lg(B + 1))``, each holding ``2**h - 1 <= B`` coefficients.
    A root-to-leaf path of length ``lg n`` then takes exactly ``h`` items
    from every block it touches — meeting the ``1 + lg B`` ceiling — and
    any two leaves sharing a path prefix share the corresponding blocks.

    The scaling coefficient (node 0) rides in the top tile when it has a
    free slot, else in its own block.
    """
    _check(n, block_size)
    height = int(math.floor(math.log2(block_size + 1)))
    if height < 1:
        raise StorageError(f"block size {block_size} too small for tiling")

    block_of = np.empty(n, dtype=int)
    tile_ids: dict[int, int] = {}
    next_tile = 0

    def tile_root_of(node: int) -> int:
        """Ancestor of ``node`` at the nearest tile-top depth."""
        depth = node.bit_length() - 1  # depth of detail node (node >= 1)
        up = depth % height
        return node >> up

    for node in range(1, n):
        root = tile_root_of(node)
        if root not in tile_ids:
            tile_ids[root] = next_tile
            next_tile += 1
        block_of[node] = tile_ids[root]

    if n == 1:
        block_of[0] = 0
        return Allocation(
            name="subtree_tiling", block_of=block_of, block_size=block_size
        )
    # Node 0 joins node 1's tile when the tile has spare capacity.
    top_tile = tile_ids[1]
    top_occupancy = int(np.sum(block_of[1:] == top_tile))
    block_of[0] = top_tile if top_occupancy < block_size else next_tile
    return Allocation(
        name="subtree_tiling", block_of=block_of, block_size=block_size
    )


def utilization_bound(block_size: int) -> float:
    """The paper's ceiling: ``1 + lg B`` needed items per retrieved block."""
    if block_size < 1:
        raise StorageError(f"block size must be >= 1, got {block_size}")
    return 1.0 + math.log2(block_size)


def measure_utilization(
    allocation: Allocation,
    queries: list[set[int]],
) -> float:
    """Average needed-items-per-retrieved-block over a query workload.

    For each query (a set of required coefficient indices), divide the
    number of required items by the number of blocks fetched; average over
    the workload.  Higher is better; the paper's bound caps what any
    allocation can reach on path-structured workloads.
    """
    if not queries:
        raise StorageError("need at least one query to measure utilization")
    ratios = []
    for needed in queries:
        if not needed:
            continue
        blocks = allocation.blocks_for(needed)
        ratios.append(len(needed) / len(blocks))
    if not ratios:
        raise StorageError("all queries were empty")
    return float(np.mean(ratios))


def point_query_workload(n: int, rng: np.random.Generator, count: int = 64) -> list[set[int]]:
    """Random Haar point queries: each needs one root-to-leaf path."""
    return [
        set(leaf_path(int(rng.integers(0, n)), n)) for _ in range(count)
    ]


def range_query_workload(
    n: int, rng: np.random.Generator, count: int = 64
) -> list[set[int]]:
    """Random Haar range-sum queries: each needs two boundary paths."""
    queries = []
    for _ in range(count):
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        queries.append(range_support(lo, hi, n))
    return queries


@dataclass(frozen=True)
class TensorAllocation(_Packing):
    """Multivariate allocation: Cartesian product of per-axis tilings.

    "We simply decompose each dimension into optimal virtual blocks, and
    take the Cartesian products of these virtual blocks to be our actual
    blocks" (§3.2.1).  An actual block's id is the tuple of per-axis virtual
    block ids, and its *code* — the address stores and devices use — is
    that tuple raveled over the block grid; its capacity is the product
    of the per-axis block sizes.
    """

    axes: tuple[Allocation, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        """Per-axis coefficient counts."""
        return tuple(a.n for a in self.axes)

    @property
    def block_capacity(self) -> int:
        """Maximum items an actual (product) block can hold."""
        cap = 1
        for axis in self.axes:
            cap *= axis.block_size
        return cap

    @cached_property
    def _tables(self) -> tuple[tuple, tuple[int, ...], np.ndarray]:
        """Per-axis ``(block_of, slot_of, block_counts)`` tables, the
        block grid, and every grid block's length by code."""
        tables = tuple(
            (np.asarray(a.block_of, dtype=np.intp), a.slot_of, a.block_counts)
            for a in self.axes
        )
        lens = np.ones(1, dtype=np.intp)
        for _, _, counts in tables:
            lens = np.multiply.outer(lens, counts).ravel()
        return tables, tuple(len(counts) for _, _, counts in tables), lens

    def locate(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Block *codes* and in-block *slots* of ``(N, ndim)`` keys.

        A code is the block-id tuple raveled over the block grid, so
        codes sort exactly like the id tuples (:meth:`block_tuple` turns
        one back); a slot is the key's row-major rank among the
        block's members, i.e. its position in the block's payload
        array.  Out-of-range keys and wrong arity raise
        :class:`~repro.core.errors.StorageError` (never ``IndexError``,
        never a silent negative wrap).
        """
        keys = np.asarray(keys, dtype=np.intp)
        if keys.size == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        if keys.ndim != 2 or keys.shape[1] != len(self.axes):
            raise StorageError(
                f"keys of shape {keys.shape} are not (N, {len(self.axes)}) "
                f"coefficient indices"
            )
        if (keys < 0).any() or (keys >= self.shape).any():
            raise StorageError(
                f"coefficient index outside allocation shape {self.shape}"
            )
        codes = slots = 0
        for d, (block_of, slot_of, counts) in enumerate(self._tables[0]):
            column = keys[:, d]
            virtual = block_of[column]
            codes = codes * len(counts) + virtual
            slots = slots * counts[virtual] + slot_of[column]
        return codes, slots

    def locate_product(self, axis_indices) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`locate` of the prefix-major Cartesian product of one
        index array per axis, its keys never built: a product of index
        sets lands on a product of virtual blocks (§3.2.1), so the range
        check and the table lookups run per axis and outer sums and
        products combine them.  Same errors as :meth:`locate`."""
        if len(axis_indices) != len(self.axes):
            raise StorageError(
                f"{len(axis_indices)} index arrays for {len(self.axes)} axes"
            )
        codes = slots = np.zeros(1, dtype=np.intp)
        for index, (block_of, slot_of, counts) in zip(
            axis_indices, self._tables[0]
        ):
            index = np.asarray(index, dtype=np.intp)
            if index.size and (index.min() < 0 or index.max() >= len(block_of)):
                raise StorageError(
                    f"coefficient index outside allocation shape {self.shape}"
                )
            virtual = block_of[index]
            codes = np.add.outer(codes * len(counts), virtual).ravel()
            slots = (
                np.multiply.outer(slots, counts[virtual]) + slot_of[index]
            ).ravel()
        return codes, slots

    def blocks_of(self, keys) -> np.ndarray:
        """Block codes of ``(N, ndim)`` coefficient keys
        (:meth:`locate` without the slots)."""
        return self.locate(keys)[0]

    @property
    def n_codes(self) -> int:
        """Size of the block grid: codes lie in ``[0, n_codes)``."""
        return len(self._tables[2])

    def block_len(self, codes) -> np.ndarray:
        """Member count of each block code (product of the per-axis
        virtual-block member counts)."""
        return self._tables[2][codes]

    def block_tuple(self, code: int) -> tuple[int, ...]:
        """The block-id tuple of one code (its per-axis virtual blocks),
        for messages, placement and :meth:`block_keys`."""
        virtual = []
        for n_virtual in reversed(self._tables[1]):
            code, v = divmod(int(code), n_virtual)
            virtual.append(v)
        return tuple(reversed(virtual))

    def block_keys(self, code: int) -> np.ndarray:
        """``(M, ndim)`` member keys of one block, in payload order."""
        return product_keys([
            axis.block_keys(virtual)
            for axis, virtual in zip(self.axes, self.block_tuple(code))
        ])

    def build_blocks(self, coeffs: np.ndarray) -> dict[int, np.ndarray]:
        """Group a dense coefficient cube into product-block payloads,
        by code.

        One vectorized pass; blocks appear in first-touched row-major
        order and each payload (a read-only array) holds its members'
        values row-major, as a scan of the cube would produce them.
        """
        cube = np.asarray(coeffs, dtype=float)
        if cube.shape != self.shape:
            raise StorageError(
                f"coefficient cube shape {cube.shape} != allocation "
                f"shape {self.shape}"
            )
        codes, parts = _group(
            cube.ravel(),
            self.locate_product([np.arange(n) for n in cube.shape])[0],
        )
        return dict(zip(codes.tolist(), parts))
