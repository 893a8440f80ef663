"""The block cache's recency rule: a group becomes most recent deepest
first in the error tree, so its root-ward blocks — shared by every range
query's paths (§3.2.1) — are the last a later group evicts.

Pinned here: the depth tables the stores hand their caches
(``Allocation.block_depth``, ``TensorAllocation.block_depth``), the
order a group leaves in the LRU map, the generation gate under that
order, and, on seeded drill-down and mixed-range block streams replayed
through one cache, that the depth table never costs a read.  A cache
built without a depth table keeps plain LRU order (``TestCachingDevice``
and the coherence tests run without one).
"""

import numpy as np
import pytest

from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.allocation import (
    TensorAllocation,
    random_allocation,
    subtree_tiling_allocation,
)
from repro.storage.device import CachingDevice
from repro.storage.disk import SimulatedDisk

# Block 0 is the root, 1-2 its children, 3-6 their children.
DEPTH = np.array([0, 1, 1, 2, 2, 2, 2])


def cached(capacity, depth=DEPTH, disk_cls=SimulatedDisk):
    """A cache over a disk holding one empty payload per code of
    ``depth``."""
    disk = disk_cls(block_size=1)
    disk.write_many(np.arange(len(DEPTH)), [b""] * len(DEPTH))
    return disk, CachingDevice(disk, capacity=capacity, depth=depth)


class TestBlockDepth:
    def test_subtree_tiling_depths_are_pinned(self):
        # Height-3 tiles cut from the leaves up.  n = 64 (six levels):
        # the root tile (nodes 1-7), one tile under each of nodes 8-15;
        # node 0 finds no free slot in the root tile, so it gets the
        # last block.  n = 128 (seven levels): a one-level root tile
        # (node 1, joined by node 0), one tile under each of nodes 2-3,
        # then one under each of nodes 16-31.
        assert subtree_tiling_allocation(64, 7).block_depth.tolist() == (
            [0] + [3] * 8 + [0]
        )
        assert subtree_tiling_allocation(128, 7).block_depth.tolist() == (
            [0] + [1] * 2 + [4] * 16
        )

    def test_a_block_takes_its_shallowest_members_depth(self):
        allocation = random_allocation(256, 5, np.random.default_rng(3))
        want = [
            min(max(int(i).bit_length() - 1, 0)
                for i in np.flatnonzero(allocation.block_of == b))
            for b in range(allocation.n_codes)
        ]
        assert allocation.block_depth.tolist() == want

    def test_a_product_blocks_depth_is_the_sum_of_its_axes(self):
        axes = (subtree_tiling_allocation(64, 7),
                subtree_tiling_allocation(128, 7))
        allocation = TensorAllocation(axes=axes)
        want = np.add.outer(*(a.block_depth for a in axes)).ravel()
        assert allocation.block_depth.tolist() == want.tolist()
        assert len(want) == allocation.n_codes == 10 * 19
        for code in (0, 9, 80, 189):
            virtual = allocation.block_tuple(code)
            assert allocation.block_depth[code] == sum(
                a.block_depth[v] for a, v in zip(axes, virtual)
            )


class TestDeepestFirst:
    def test_an_oversized_group_leaves_its_root_ward_blocks_cached(self):
        disk, cache = cached(capacity=3)
        got = cache.read_many(np.arange(7))
        assert got.codes.tolist() == list(range(7))  # request order
        assert sorted(cache._cache) == [0, 1, 2]
        reads = disk.io.reads
        cache.read_many([0, 1, 2])
        assert disk.io.reads == reads  # all three hit
        # Plain LRU keeps the last three published: the deep ones.
        _, plain = cached(capacity=3, depth=None)
        plain.read_many(np.arange(7))
        assert sorted(plain._cache) == [4, 5, 6]

    def test_a_hit_only_group_bumps_deepest_first(self):
        disk, cache = cached(capacity=7)
        for code in range(7):
            cache.read_many([code])
        reads = disk.io.reads
        got = cache.read_many([0, 5, 1, 6, 2])
        assert disk.io.reads == reads
        assert got.codes.tolist() == [0, 5, 1, 6, 2]  # request order
        # Least recent first: the untouched blocks, then the group
        # deepest first, ties in request order.
        assert list(cache._cache) == [3, 4, 5, 6, 1, 2, 0]

    def test_later_groups_evict_the_root_ward_blocks_last(self):
        caches = [cached(capacity=4)[1], cached(capacity=4, depth=None)[1]]
        for cache in caches:
            cache.read_many([0, 1, 3, 4])
            cache.read_many([5])
            cache.read_many([6])
        deep, plain = (sorted(cache._cache) for cache in caches)
        assert deep == [0, 1, 5, 6]
        assert plain == [3, 4, 5, 6]

    @pytest.mark.parametrize("land", ["invalidate", "clear"])
    def test_the_generation_gate_still_blocks_the_publish(self, land):
        class RacingDisk(SimulatedDisk):
            """Leaf whose read, once armed, is overtaken by an
            invalidation."""

            armed = False

            def read_many(self, codes):
                out = super().read_many(codes)
                if self.armed and land == "invalidate":
                    cache.invalidate(4)  # a write to block 4 just settled
                elif self.armed:
                    cache.clear()
                return out

        disk, cache = cached(capacity=8, disk_cls=RacingDisk)
        cache.read_many([0])  # a hit for the raced group
        disk.armed = True
        got = cache.read_many([3, 0, 4])
        assert got.codes.tolist() == [0, 3, 4]  # hits first, then misses
        # Nothing the inner read returned was published; the hit stays
        # unless the cache was cleared under it.
        assert list(cache._cache) == ([0] if land == "invalidate" else [])
        assert (cache.pool_stats.hits, cache.pool_stats.misses) == (1, 3)


def drilldown_groups(engine, seed):
    """Block groups of seeded drill-down sessions: batches of eight
    overlapping windows of side n/3, each batch shifted by (+2, +1)."""
    rng = np.random.default_rng(seed)
    n = engine.shape[0]
    side = n // 3
    batches = []
    for _ in range(4):
        x0, y0 = (int(v) for v in rng.integers(0, n - side - 26, 2))
        for step in range(5):
            x, y = x0 + 2 * step, y0 + step
            batches.append([
                RangeSumQuery.count([
                    (x + i % 8, x + i % 8 + side - 1),
                    (y + i % 16, y + i % 16 + side - 1),
                ])
                for i in range(8)
            ])
    return [blocks_of(engine, batch) for batch in batches]


def mixed_groups(engine, seed):
    """Block groups of 60 seeded single queries: 2-D ranges at random
    positions with sides of 4 to 24 cells."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(60):
        ranges = []
        for n in engine.shape:
            side = int(rng.integers(4, 25))
            lo = int(rng.integers(0, n - side + 1))
            ranges.append((lo, lo + side - 1))
        groups.append(blocks_of(engine, [RangeSumQuery.count(ranges)]))
    return groups


def blocks_of(engine, queries):
    allocation = engine.store.allocation
    return allocation.distinct(
        np.concatenate([engine.query_located(q)[1] for q in queries])
    )


def replay(groups, n_codes, capacity, depth) -> int:
    """Leaf reads of the groups read in turn through one cache."""
    disk = SimulatedDisk(block_size=1)
    disk.write_many(np.arange(n_codes), [b""] * n_codes)
    cache = CachingDevice(disk, capacity=capacity, depth=depth)
    for group in groups:
        cache.read_many(group)
    return disk.io.reads


@pytest.mark.parametrize("stream, shape, capacities", [
    (drilldown_groups, (128, 128), (64, 128, 256)),
    (mixed_groups, (64, 64), (16, 32, 64)),
])
def test_the_depth_table_never_costs_a_read(stream, shape, capacities):
    engine = ProPolyneEngine(np.zeros(shape), max_degree=1, block_size=7)
    allocation = engine.store.allocation
    for seed in (0, 1):
        groups = stream(engine, seed)
        plain = [replay(groups, allocation.n_codes, c, None) for c in capacities]
        deep = [
            replay(groups, allocation.n_codes, c, allocation.block_depth)
            for c in capacities
        ]
        assert all(d <= p for d, p in zip(deep, plain)), (seed, plain, deep)
        assert sum(deep) < sum(plain)
