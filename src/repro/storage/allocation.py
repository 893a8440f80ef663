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
The tiling is cut from the leaves up, so the one tile that cannot be a
full-height subtree is the root tile every query reads anyway, never a
band of near-empty blocks at the leaves.
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
class Allocation:
    """A mapping from flat coefficient index to block id: one axis of a
    :class:`TensorAllocation`.

    A block's members are held in increasing-index order, so a
    coefficient is addressed by ``(block_of[i], slot_of[i])`` and keys
    are never stored.

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

    @property
    def n_codes(self) -> int:
        """Block ids lie in ``[0, n_codes)``."""
        return len(self.block_counts)

    @cached_property
    def block_depth(self) -> np.ndarray:
        """``block_depth[b]``: error-tree depth of block ``b``'s
        shallowest member, ``floor(lg i)`` for coefficient ``i`` (nodes 0
        and 1 at depth 0) — what the block cache reads to keep root-ward
        blocks, which every query's paths share, most recent."""
        node_depth = np.maximum(np.frexp(np.arange(self.n))[1] - 1, 0)
        depth = np.full(self.n_codes, node_depth.max(initial=0), dtype=np.intp)
        np.minimum.at(depth, self.block_of, node_depth)
        return depth

    def blocks_for(self, indices: set[int] | list[int]) -> set[int]:
        """Blocks that must be fetched to obtain ``indices``;
        out-of-range indices raise
        :class:`~repro.core.errors.StorageError`."""
        idx = np.fromiter(indices, dtype=np.intp, count=len(indices))
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise StorageError(
                f"coefficient index outside allocation size {self.n}"
            )
        return set(self.block_of[idx].tolist())

    def block_keys(self, code: int) -> np.ndarray:
        """Coefficient indices of one block, in member order."""
        return np.flatnonzero(self.block_of == code)


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

    The detail tree (nodes >= 1, ``J = lg n`` levels) is cut from the
    leaves up into perfect subtrees of height ``h = floor(lg(B + 1))``,
    each holding ``2**h - 1 <= B`` coefficients.  When ``h`` does not
    divide ``J`` the one partial band, of height ``J mod h``, is the
    root tile, which every query reads anyway.  A root-to-leaf path then
    takes ``h`` items from every tile it touches but the root tile —
    ``ceil(J / h)`` tiles in all — and any two leaves sharing a path
    prefix share the corresponding blocks.

    The scaling coefficient (node 0) rides in the root tile when it has
    a free slot (always, when the root tile is partial), else in a block
    of its own, which every path then reads too.
    """
    _check(n, block_size)
    height = int(math.floor(math.log2(block_size + 1)))
    if height < 1:
        raise StorageError(f"block size {block_size} too small for tiling")
    offset = (int(n).bit_length() - 1) % height  # partial root tile's height

    block_of = np.empty(n, dtype=int)
    tile_ids: dict[int, int] = {}
    next_tile = 0

    def tile_root_of(node: int) -> int:
        """Ancestor of ``node`` at the nearest tile-top depth."""
        depth = node.bit_length() - 1  # depth of detail node (node >= 1)
        up = depth if depth < offset else (depth - offset) % height
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
class TensorAllocation:
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

    def locate_axis(self, axis: int, index) -> tuple:
        """One axis of :meth:`locate_product`: each index's virtual
        block, its slot in that block and the block's member count.
        Same range check as :meth:`locate`."""
        block_of, slot_of, counts = self._tables[0][axis]
        index = np.asarray(index, dtype=np.intp)
        if index.size and (index.min() < 0 or index.max() >= len(block_of)):
            raise StorageError(
                f"coefficient index outside allocation shape {self.shape}"
            )
        virtual = block_of[index]
        return virtual, slot_of[index], counts[virtual]

    def combine(self, located) -> tuple[np.ndarray, np.ndarray]:
        """Codes and slots of the prefix-major product of per-axis
        :meth:`locate_axis` results (the first axis's used as they are)."""
        (codes, slots, _), *rest = located
        for n_virtual, (virtual, slot, count) in zip(self._tables[1][1:], rest):
            codes = np.add.outer(codes * n_virtual, virtual).ravel()
            slots = (np.multiply.outer(slots, count) + slot).ravel()
        return codes, slots

    def locate_product(self, axis_indices) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`locate` of the prefix-major Cartesian product of one
        index array per axis, its keys never built: a product of index
        sets lands on a product of virtual blocks (§3.2.1), so the range
        check and the table lookups run per axis (:meth:`locate_axis`)
        and :meth:`combine` joins them.  Errors as :meth:`locate`."""
        if len(axis_indices) != len(self.axes):
            raise StorageError(
                f"{len(axis_indices)} index arrays for {len(self.axes)} axes"
            )
        return self.combine([self.locate_axis(axis, index)
                             for axis, index in enumerate(axis_indices)])

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

    def distinct(self, codes) -> np.ndarray:
        """Sorted distinct block codes of ``codes``, from a presence
        table over the block grid — no sort."""
        present = np.zeros(self.n_codes, dtype=bool)
        present[codes] = True
        return np.flatnonzero(present)

    def check_lens(self, codes, lens) -> None:
        """Raise :class:`~repro.core.errors.StorageError`, naming the
        first such block, if a payload length in ``lens`` is not
        ``block_len`` of its block in ``codes``."""
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

    def pack(self, group) -> tuple[np.ndarray, np.ndarray]:
        """A read's payloads (a :class:`~repro.storage.disk.BlockGroup`)
        back to back in one buffer, in the order the group holds them.

        Returns ``(buffer, base)``: what ``locate`` puts at ``(code,
        slot)`` sits at ``buffer[base[code] + slot]``; the buffer is
        read-only.  Payload lengths (the group's ``lens``) are checked by
        :meth:`check_lens`.
        """
        codes, payloads, lens = group
        self.check_lens(codes, lens)
        base = np.zeros(self.n_codes, dtype=np.intp)
        base[codes] = np.cumsum(lens) - lens
        # Payloads are contiguous float64 (``frozen_payload``): joining
        # their bytes is half the time of a per-block ``np.concatenate``.
        return np.frombuffer(b"".join(payloads)), base

    @cached_property
    def offsets(self) -> np.ndarray:
        """The fixed coefficient layout: every grid block's payload back
        to back in code order, block ``code`` starting at
        ``offsets[code]`` — the exclusive running sum of
        :meth:`block_len` over the block grid.  What ``locate`` puts at
        ``(code, slot)`` sits at ``offsets[code] + slot``, one position
        per coefficient of the cube."""
        lens = self._tables[2]
        offsets = np.cumsum(lens) - lens
        offsets.setflags(write=False)
        return offsets

    @cached_property
    def block_depth(self) -> np.ndarray:
        """Depth of each block code: the per-axis virtual blocks'
        :attr:`Allocation.block_depth` summed over the block grid."""
        depth = np.zeros(1, dtype=np.intp)
        for axis in self.axes:
            depth = np.add.outer(depth, axis.block_depth).ravel()
        return depth

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
