"""Regression tests: storage-cache coherence and copy semantics.

Two bugs fixed in the observability PR live here so they cannot return,
re-expressed against the layered device stack:

* stale reads — a write used to be able to bypass the cache and leave
  it serving the old payload; now every write enters through
  :class:`~repro.storage.device.CachingDevice`, whose write-through
  invalidation is an internal invariant (the weak-ref side channel on
  the disk is gone);
* cache-state leaks — mutating a returned block can never corrupt the
  cached (or on-device) payload: payloads are read-only arrays, so the
  one stored instance is shared by every reader and a read copies
  nothing.
"""

import numpy as np
import pytest

from repro.storage.allocation import subtree_tiling_allocation
from repro.storage.blockstore import WaveletBlockStore
from repro.core.errors import StorageError
from repro.storage.device import CachingDevice, StorageSpec
from repro.storage.disk import SimulatedDisk
from tests._blocks import read_block, write_block


def vals(*values):
    """A block payload: the block's values, nothing else."""
    return np.array(values, dtype=float)


def build_cached(block_size=4, capacity=2):
    """One cache over one disk — the minimal coherent stack."""
    disk = SimulatedDisk(block_size=block_size)
    return disk, CachingDevice(disk, capacity=capacity)


class TestWriteThroughInvalidation:
    def test_write_through_stack_invalidates_cached_block(self):
        disk, cache = build_cached()
        write_block(cache, 0, vals(1.0, 2.0))
        assert read_block(cache, 0).tolist() == [1.0, 2.0]
        # The write enters through the stack, so the cache invalidates
        # its own copy — no side channel, no opt-in hook.
        write_block(cache, 0, vals(9.0, 2.0))
        assert read_block(cache, 0).tolist() == [9.0, 2.0]
        assert read_block(disk, 0).tolist() == [9.0, 2.0]
        assert cache.pool_stats.invalidations == 1

    def test_untouched_blocks_stay_cached(self):
        disk, cache = build_cached(block_size=2, capacity=4)
        write_block(cache, 0, vals(1.0))
        write_block(cache, 1, vals(5.0))
        read_block(cache, 0)
        read_block(cache, 1)
        write_block(cache, 0, vals(2.0))
        before = cache.pool_stats.snapshot()
        assert read_block(cache, 1).tolist() == [5.0]
        assert cache.pool_stats.delta(before).hits == 1  # still served hot

    def test_store_update_through_cache_is_coherent(self):
        flat = np.arange(16, dtype=float)
        store = WaveletBlockStore(
            flat, subtree_tiling_allocation(16, 3),
            storage=StorageSpec(cache_blocks=8),
        )
        # Warm the cache over every block, then update one coefficient.
        store.fetch(list(range(16)))
        store.update(5, 123.0)
        assert store.fetch([5])[5] == 123.0

    def test_manual_invalidate_still_available(self):
        disk, cache = build_cached(block_size=2)
        write_block(cache, 0, vals(1.0))
        read_block(cache, 0)
        cache.invalidate(0)
        before = cache.pool_stats.snapshot()
        read_block(cache, 0)
        assert cache.pool_stats.delta(before).misses == 1

    def test_disk_has_no_invalidation_side_channel(self):
        # The old design registered caches on the disk through a weak-ref
        # set; the leaf device must know nothing about caches now.
        disk = SimulatedDisk(block_size=2)
        assert not hasattr(disk, "attach_cache")
        assert not hasattr(disk, "_caches")


class TestReturnedBlockOwnership:
    def test_mutating_miss_result_does_not_corrupt_cache(self):
        disk, cache = build_cached()
        write_block(cache, 0, vals(1.0, 2.0))
        returned = read_block(cache, 0)  # miss
        with pytest.raises(ValueError):
            returned[0] = 666.0
        assert read_block(cache, 0).tolist() == [1.0, 2.0]

    def test_mutating_hit_result_does_not_corrupt_cache(self):
        disk, cache = build_cached()
        write_block(cache, 0, vals(1.0))
        read_block(cache, 0)
        hit = read_block(cache, 0)
        with pytest.raises(ValueError):
            hit[0] = 666.0
        assert read_block(cache, 0).tolist() == [1.0]

    def test_mutating_cache_result_does_not_corrupt_device(self):
        disk, cache = build_cached()
        write_block(cache, 0, vals(1.0))
        with pytest.raises(ValueError):
            read_block(cache, 0)[0] = 666.0
        cache.clear()
        assert read_block(disk, 0).tolist() == [1.0]

    def test_miss_serves_device_payload_without_extra_copy(self):
        # Zero-copy reads: the cache entry and what the caller receives
        # are the device payload itself (one shared, immutable instance).
        disk, cache = build_cached()
        write_block(cache, 0, vals(1.0))
        returned = read_block(cache, 0)
        assert returned.tolist() == [1.0]
        assert cache._cache[0] is disk._blocks[0]
        assert returned is cache._cache[0]

    def test_hit_serves_the_same_shared_instance(self):
        # Zero-copy reads on the hit path too: a hit returns the cached
        # instance itself.
        disk, cache = build_cached()
        write_block(cache, 0, vals(1.0))
        first = read_block(cache, 0)
        second = read_block(cache, 0)
        assert first is second
        assert cache.pool_stats.hits == 1

    def test_shared_read_counts_io(self):
        disk = SimulatedDisk(block_size=4)
        write_block(disk, 0, vals(1.0))
        before = disk.io.snapshot()
        shared = read_block(disk, 0)
        assert shared is disk._blocks[0] and shared.tolist() == [1.0]
        assert disk.io.delta(before).reads == 1


class TestGroupRead:
    """``CachingDevice.read_many``: hits, one inner read, gated publish."""

    def test_hits_are_served_before_the_groups_own_misses_evict(self):
        disk, cache = build_cached(capacity=2)
        blocks = {b: vals(float(b)) for b in range(5)}
        cache.write_many(blocks)
        cache.read_many([0, 1])  # the cache now holds exactly {0, 1}
        before = cache.pool_stats.snapshot()
        reads = disk.io.reads
        got = cache.read_many([2, 3, 4, 0, 1])  # larger than capacity
        assert list(got) == [2, 3, 4, 0, 1]
        assert all(got[b] is disk._blocks[b] for b in got)
        delta = cache.pool_stats.delta(before)
        # A per-block loop would have evicted 0 and 1 before reaching
        # them (five misses); the group serves them first.
        assert (delta.hits, delta.misses) == (2, 3)
        assert disk.io.reads - reads == 3
        assert cache.cached_blocks() == cache.capacity
        assert delta.evictions == 3

    @pytest.mark.parametrize("land", ["invalidate", "clear"])
    def test_invalidation_during_the_inner_read_blocks_the_publish(self, land):
        class RacingDisk(SimulatedDisk):
            """Leaf whose read is overtaken by an invalidation."""

            def read_many(self, block_ids):
                out = super().read_many(block_ids)
                if land == "invalidate":
                    cache.invalidate(1)  # a write to block 1 just settled
                else:
                    cache.clear()
                return out

        disk = RacingDisk(block_size=4)
        cache = CachingDevice(disk, capacity=8)
        disk.write_many({b: vals(float(b)) for b in range(3)})
        got = cache.read_many([0, 1, 2])
        assert [got[b].tolist() for b in got] == [[0.0], [1.0], [2.0]]
        # None of the group was published: every member was read before
        # the invalidation, so any of them may be the stale one.
        assert cache.cached_blocks() == 0
        assert cache.pool_stats.misses == 3

    def test_failed_inner_read_publishes_nothing_and_counts_no_miss(self):
        disk, cache = build_cached(capacity=4)
        write_block(cache, 0, vals(1.0))
        read_block(cache, 0)
        before = cache.pool_stats.snapshot()
        with pytest.raises(StorageError):
            cache.read_many([0, "absent"])
        delta = cache.pool_stats.delta(before)
        assert (delta.hits, delta.misses) == (1, 0)
        assert cache.cached_blocks() == 1
