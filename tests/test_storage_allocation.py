"""Tests for block allocation strategies and the 1+lgB bound (E3 core)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.storage.allocation import (
    Allocation,
    TensorAllocation,
    depth_first_allocation,
    measure_utilization,
    point_query_workload,
    random_allocation,
    range_query_workload,
    sequential_allocation,
    subtree_tiling_allocation,
    utilization_bound,
)
from repro.wavelets.errortree import leaf_path
from tests._blocks import block_of


RNG = np.random.default_rng(31)
BLOCK_SIZES = (3, 7, 15, 31, 63)


def tile_height(block: int) -> int:
    return int(math.floor(math.log2(block + 1)))


def node_depth(nodes: np.ndarray) -> np.ndarray:
    """Error-tree depth of detail nodes (>= 1)."""
    return np.frexp(nodes)[1] - 1


def root_tile_height(levels: int, block: int) -> int:
    """The tiling is cut from the leaves up: the one partial tile, of
    height ``J mod h``, is the root tile."""
    return levels % tile_height(block) or tile_height(block)


def point_path_blocks(levels: int, block: int) -> int:
    """Blocks a point query's path reads: ``ceil(J / h)`` tiles, plus
    node 0's own block when the root tile has no free slot for it."""
    no_room = 2 ** root_tile_height(levels, block) - 1 >= block
    return -(-levels // tile_height(block)) + no_room


class TestStrategies:
    @pytest.mark.parametrize(
        "factory",
        [
            sequential_allocation,
            depth_first_allocation,
            lambda n, b: random_allocation(n, b, np.random.default_rng(0)),
            subtree_tiling_allocation,
        ],
        ids=["sequential", "depth_first", "random", "tiling"],
    )
    def test_every_coefficient_allocated_within_capacity(self, factory):
        n, block = 256, 7
        alloc = factory(n, block)
        assert alloc.block_of.shape == (n,)
        __, counts = np.unique(alloc.block_of, return_counts=True)
        assert counts.max() <= block

    def test_non_power_of_two_rejected(self):
        with pytest.raises(StorageError):
            sequential_allocation(48, 8)

    def test_tiny_block_rejected(self):
        with pytest.raises(StorageError):
            subtree_tiling_allocation(64, 1)

    def test_tiling_blocks_are_subtrees(self):
        """Every tiling block must be a connected subtree of the error
        tree: each member's parent is either in the same block or the
        block's root's parent."""
        n, block = 512, 7  # height 3 tiles
        alloc = subtree_tiling_allocation(n, block)
        for block_id in range(alloc.n_blocks):
            members = set(np.nonzero(alloc.block_of == block_id)[0].tolist())
            detail_members = {m for m in members if m >= 1}
            if not detail_members:
                continue
            roots = {
                m
                for m in detail_members
                if (m // 2 if m > 1 else 0) not in detail_members
            }
            assert len(roots) == 1, f"block {block_id} is not one subtree"

    def test_tiling_path_cost(self):
        """A root-to-leaf path in a height-h tiling touches ceil(J/h)
        blocks with h items each, plus node 0's block."""
        n, block = 2**12, 7  # h = 3, J = 12
        alloc = subtree_tiling_allocation(n, block)
        for leaf in (0, 17, n - 1, n // 2):
            path = set(leaf_path(leaf, n))
            blocks = alloc.blocks_for(path)
            # 12 detail levels / 3 per tile = 4 full tiles; the root
            # tile is full too, so node 0 has a block of its own.
            assert len(blocks) == 5


class TestLeavesUpTiling:
    """The tiling of an error tree of ``J = lg n`` levels, pinned for
    every ``J <= 14`` at each of E3's block sizes."""

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_every_tile_is_a_perfect_subtree(self, block):
        for levels in range(1, 15):
            alloc = subtree_tiling_allocation(2**levels, block)
            nodes = np.arange(1, alloc.n)
            tile = alloc.block_of[1:]
            top = np.full(alloc.n_codes, alloc.n)
            np.minimum.at(top, tile, nodes)
            below = node_depth(nodes) - node_depth(top[tile])
            # Every member descends from its tile's top ...
            assert (nodes >> below == top[tile]).all()
            height = np.zeros(alloc.n_codes, dtype=int)
            np.maximum.at(height, tile, below + 1)
            # ... and its tile holds all 2**height - 1 nodes down there.
            tiles = np.unique(tile)
            counts = np.bincount(tile, minlength=alloc.n_codes)
            assert (counts[tiles] == 2 ** height[tiles] - 1).all()
            # Height h everywhere but the root tile.
            want = np.full(alloc.n_codes, tile_height(block))
            want[alloc.block_of[1]] = root_tile_height(levels, block)
            assert (height[tiles] == want[tiles]).all(), levels
            # Node 0 joins the root tile when it has room.
            if 2 ** root_tile_height(levels, block) - 1 < block:
                assert alloc.block_of[0] == alloc.block_of[1]
            else:
                assert alloc.block_counts[alloc.block_of[0]] == 1

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_a_point_path_reads_ceil_j_over_h_blocks(self, block):
        for levels in range(1, 15):
            n = 2**levels
            alloc = subtree_tiling_allocation(n, block)
            for leaf in range(0, n, max(1, n // 64)):
                blocks = alloc.blocks_for(leaf_path(leaf, n))
                assert len(blocks) == point_path_blocks(levels, block)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_unchanged_from_the_root_down_cut_when_h_divides_j(self, block):
        h = tile_height(block)
        for levels in range(h, 15, h):
            n = 2**levels
            nodes = np.arange(1, n)
            # Tiles topped at depths 0, h, 2h, ...; ids in node order.
            _, tile = np.unique(
                nodes >> (node_depth(nodes) % h), return_inverse=True
            )
            node0 = 0 if np.count_nonzero(tile == 0) < block else tile.max() + 1
            assert subtree_tiling_allocation(n, block).block_of.tolist() == (
                [node0] + tile.tolist()
            )


class TestUtilization:
    def test_bound_formula(self):
        assert utilization_bound(8) == pytest.approx(4.0)
        with pytest.raises(StorageError):
            utilization_bound(0)

    @pytest.mark.parametrize("block", [3, 7, 15, 31])
    def test_tiling_meets_bound_on_point_queries(self, block):
        n = 2**12
        alloc = subtree_tiling_allocation(n, block)
        workload = point_query_workload(n, np.random.default_rng(1), count=100)
        measured = measure_utilization(alloc, workload)
        assert measured <= utilization_bound(block) + 1e-9
        # Exactly: every path's J + 1 items over the blocks it reads.
        assert measured == pytest.approx(13 / point_path_blocks(12, block))

    def test_tiling_beats_baselines_on_point_queries(self):
        n, block = 2**12, 7
        workload = point_query_workload(n, np.random.default_rng(2), count=100)
        tiling = measure_utilization(subtree_tiling_allocation(n, block), workload)
        seq = measure_utilization(sequential_allocation(n, block), workload)
        rnd = measure_utilization(
            random_allocation(n, block, np.random.default_rng(3)), workload
        )
        assert tiling > seq
        assert tiling > rnd

    def test_tiling_beats_baselines_on_range_queries(self):
        n, block = 2**12, 15
        workload = range_query_workload(n, np.random.default_rng(4), count=100)
        tiling = measure_utilization(subtree_tiling_allocation(n, block), workload)
        rnd = measure_utilization(
            random_allocation(n, block, np.random.default_rng(5)), workload
        )
        assert tiling > rnd

    def test_random_allocation_is_poor(self):
        """Random placement needs ~1 item per block — no locality."""
        n, block = 2**12, 7
        workload = point_query_workload(n, np.random.default_rng(6), count=100)
        measured = measure_utilization(
            random_allocation(n, block, np.random.default_rng(7)), workload
        )
        assert measured < 1.5

    def test_empty_workload_rejected(self):
        alloc = sequential_allocation(16, 4)
        with pytest.raises(StorageError):
            measure_utilization(alloc, [])
        with pytest.raises(StorageError):
            measure_utilization(alloc, [set()])

    @settings(max_examples=20, deadline=None)
    @given(
        log_n=st.integers(6, 12),
        log_b=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    def test_bound_holds_property(self, log_n, log_b, seed):
        """The paper's ceiling holds for every (n, B) combination."""
        n, block = 2**log_n, 2**log_b - 1
        if block < 2:
            return
        alloc = subtree_tiling_allocation(n, block)
        workload = point_query_workload(
            n, np.random.default_rng(seed), count=32
        )
        assert measure_utilization(alloc, workload) <= utilization_bound(block)


class TestBuildBlocks:
    """A 1-D vector is a one-axis cube: its blocks are the tiling's."""

    def test_payloads_partition_vector(self):
        tiling = subtree_tiling_allocation(64, 7)
        alloc = TensorAllocation(axes=(tiling,))
        flat = RNG.normal(size=64)
        _, blocks = alloc.build_blocks(flat)
        seen = {}
        for code, items in blocks.items():
            assert not items.flags.writeable
            keys = alloc.block_keys(code).ravel()
            assert keys.tolist() == tiling.block_keys(code).tolist()
            seen.update(zip(keys.tolist(), items.tolist()))
        assert len(seen) == 64
        for idx, val in seen.items():
            assert val == flat[idx]

    def test_wrong_length_rejected(self):
        alloc = TensorAllocation(axes=(sequential_allocation(16, 4),))
        with pytest.raises(StorageError):
            alloc.build_blocks(np.zeros(8))


def grouped_blocks(tensor, cube):
    """The reference cut: group the cube's values by block code with a
    stable sort, blocks in first-touched row-major order."""
    codes = tensor.locate_product([np.arange(n) for n in cube.shape])[0]
    uniq, first, counts = np.unique(codes, return_index=True,
                                    return_counts=True)
    parts = np.split(cube.ravel()[np.argsort(codes, kind="stable")],
                     np.cumsum(counts)[:-1])
    order = np.argsort(first).tolist()
    return {int(uniq[b]): parts[b] for b in order}


class TestCutFromTheFixedLayout:
    """``build_blocks`` scatters the cube into the fixed layout once and
    cuts it; its keys, their order and every payload's bits are the
    sort-and-group reference's."""

    @pytest.mark.parametrize("axes", [
        # One axis; a depth-0 axis (one virtual block); uneven tiles.
        (subtree_tiling_allocation(64, 7),),
        (subtree_tiling_allocation(16, 3), subtree_tiling_allocation(2, 7),
         subtree_tiling_allocation(8, 3)),
        (subtree_tiling_allocation(32, 7), subtree_tiling_allocation(16, 15),
         subtree_tiling_allocation(8, 3)),
        # Block ids out of first-member order.
        (random_allocation(32, 5, np.random.default_rng(2)),
         depth_first_allocation(16, 3)),
    ])
    def test_keys_order_and_bits_are_the_grouped_reference(self, axes):
        tensor = TensorAllocation(axes=axes)
        cube = RNG.normal(size=tensor.shape)
        got = tensor.build_blocks(cube)[1]
        want = grouped_blocks(tensor, cube)
        assert list(got) == list(want)
        for code, payload in got.items():
            assert payload.tobytes() == want[code].tobytes()

    def test_payloads_are_read_only_and_do_not_alias_the_cube(self):
        tensor = TensorAllocation(axes=(
            subtree_tiling_allocation(16, 3), subtree_tiling_allocation(8, 7)
        ))
        cube = RNG.normal(size=(16, 8))
        _, blocks = tensor.build_blocks(cube)
        before = {code: payload.copy() for code, payload in blocks.items()}
        cube[:] = 0.0
        for code, payload in blocks.items():
            assert not payload.flags.writeable
            assert payload.tobytes() == before[code].tobytes()


class TestTensorAllocation:
    def _make(self):
        return TensorAllocation(
            axes=(
                subtree_tiling_allocation(16, 3),
                subtree_tiling_allocation(32, 3),
            )
        )

    def test_shape_and_capacity(self):
        tensor = self._make()
        assert tensor.shape == (16, 32)
        assert tensor.block_capacity == 9

    def test_block_of_is_product(self):
        tensor = self._make()
        (code,) = tensor.blocks_of([(5, 20)])
        assert tensor.block_tuple(code) == block_of(tensor, (5, 20)) == (
            int(tensor.axes[0].block_of[5]),
            int(tensor.axes[1].block_of[20]),
        )

    def test_arity_checked(self):
        with pytest.raises(StorageError):
            self._make().blocks_of([(1,)])

    def test_build_blocks_partitions_cube(self):
        tensor = self._make()
        cube = RNG.normal(size=(16, 32))
        _, blocks = tensor.build_blocks(cube)
        total = sum(len(items) for items in blocks.values())
        assert total == 16 * 32
        for items in blocks.values():
            assert len(items) <= tensor.block_capacity

    def test_wrong_shape_rejected(self):
        with pytest.raises(StorageError):
            self._make().build_blocks(np.zeros((4, 4)))

    def test_product_locality(self):
        """Two coefficients sharing per-axis tiles share the product
        block — the Cartesian-product locality §3.2.1 constructs."""
        tensor = self._make()
        a0 = tensor.axes[0]
        same_tile = np.nonzero(a0.block_of == a0.block_of[2])[0]
        if same_tile.size >= 2:
            i, j = int(same_tile[0]), int(same_tile[1])
            codes = tensor.blocks_of([(i, 4), (j, 4)])
            assert codes[0] == codes[1]

    @settings(max_examples=40, deadline=None)
    @given(
        sides=st.lists(st.sampled_from([2, 4, 8, 16, 32]), min_size=1,
                       max_size=3),
        block=st.sampled_from([3, 7, 15]),
    )
    def test_fixed_layout_is_a_bijection(self, sides, block):
        """``offsets[code] + slot`` places every coefficient of the cube
        at its own position in ``[0, size)``, inside its block's range."""
        tensor = TensorAllocation(axes=tuple(
            subtree_tiling_allocation(n, block) for n in sides
        ))
        keys = np.stack(np.meshgrid(*map(np.arange, sides), indexing="ij"),
                        axis=-1).reshape(-1, len(sides))
        codes, slots = tensor.locate(keys)
        positions = tensor.offsets[codes] + slots
        size = int(np.prod(sides))
        assert np.array_equal(np.sort(positions), np.arange(size))
        assert (slots < tensor.block_len(codes)).all()
        assert tensor.offsets[-1] + tensor.block_len(-1) == size
        assert not tensor.offsets.flags.writeable
