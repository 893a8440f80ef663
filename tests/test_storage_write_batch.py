"""Tests for the group-commit write path: ``write_many`` through every
middleware layer and ``store_blocks`` on the block stores.

The contract under test is the write-side twin of the coalesced read
path: one ``write_many`` per batch must leave the device stack in the
identical state N sequential groups of one would, with metering
counting every member, caches invalidating every member (even when the
inner write fails partway), CRC framing validating the whole group
before any write, retries re-driving the group as one idempotent
operation, and shards receiving one coalesced sub-group each.
"""

import pytest

from repro.core.errors import StorageError, StorageUnavailable
from repro.faults.plan import FaultPlan, FaultyDevice, InjectedWriteError
from repro.faults.retry import RetryPolicy
from repro.obs import MetricsRegistry, use_registry
from repro.storage.blockstore import TensorBlockStore
from repro.storage.device import (
    CachingDevice,
    CrcFramedDevice,
    MeteredDevice,
    ResilientDevice,
    StorageSpec,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.sharding import ShardedDevice

import numpy as np

from repro.storage.allocation import (
    TensorAllocation,
    subtree_tiling_allocation,
)
from tests._blocks import (
    codes_table,
    read_block,
    read_map,
    write_block,
    write_map,
)


def _payloads(n=4, base=0):
    return {
        i: np.array([float(base + i + j) for j in range(3)])
        for i in range(n)
    }


def same(got, want) -> bool:
    """Payloads (or ``{code: payload}`` maps) equal value for value."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            same(got[code], want[code]) for code in want
        )
    return got.tolist() == want.tolist()


class TestLeafAndMetering:
    def test_disk_write_many_stores_every_member(self):
        disk = SimulatedDisk(block_size=8)
        blocks = _payloads()
        write_map(disk, blocks)
        for block_id, items in blocks.items():
            assert same(read_block(disk, block_id), items)

    def test_metered_counts_one_write_per_member(self):
        disk = SimulatedDisk(block_size=8)
        metered = MeteredDevice(disk, prefix="storage.disk")
        write_map(metered, _payloads(5))
        assert metered.writes == 5
        write_block(metered, 99, np.array([1.0]))
        assert metered.writes == 6


class TestCachingInvalidation:
    def test_group_write_invalidates_every_member(self):
        disk = SimulatedDisk(block_size=8)
        cache = CachingDevice(disk, capacity=8)
        write_map(cache, _payloads(3, base=0))
        for i in range(3):
            read_block(cache, i)  # warm
        write_map(cache, _payloads(3, base=100))
        for i in range(3):
            assert same(read_block(cache, i), read_block(disk, i))
            assert read_block(cache, i)[0] == float(100 + i)

    def test_partial_group_failure_still_invalidates_all(self):
        class HalfwayDisk(SimulatedDisk):
            """Leaf whose group write fails after the first member."""

            def write_many(self, codes, payloads):
                for k, (code, items) in enumerate(zip(codes, payloads)):
                    if k == 1:
                        raise InjectedWriteError("mid-group failure")
                    super().write_many([code], [items])

        disk = HalfwayDisk(block_size=8)
        cache = CachingDevice(disk, capacity=8)
        for code, items in _payloads(2, base=0).items():
            write_block(disk, code, items)  # groups of one succeed
        read_block(cache, 0)
        read_block(cache, 1)
        with pytest.raises(InjectedWriteError):
            write_map(cache, _payloads(2, base=100))
        # Block 0 reached the device before the failure; the cache must
        # not shadow it with the pre-write payload it had cached.
        assert same(read_block(cache, 0), read_block(disk, 0))
        assert read_block(cache, 0)[0] == 100.0
        assert same(read_block(cache, 1), read_block(disk, 1))


class TestCrcFraming:
    def test_group_round_trips_through_frames(self):
        disk = SimulatedDisk(block_size=8)
        crc = CrcFramedDevice(disk)
        blocks = _payloads(3)
        write_map(crc, blocks)
        assert same(read_map(crc, list(blocks)), blocks)

    def test_group_validated_before_any_write(self):
        disk = SimulatedDisk(block_size=8)
        crc = CrcFramedDevice(disk)
        write_map(crc, _payloads(1))
        bad = {0: np.full(3, 9.0), 1: "not-an-array"}
        with pytest.raises(StorageError):
            write_map(crc, bad)
        # The invalid member aborted the whole group before any write.
        assert same(read_block(crc, 0), _payloads(1)[0])


class TestResilientGroupRetry:
    def test_group_retried_as_one_idempotent_operation(self):
        # At 10 % a 4-member group commits on an attempt with odds
        # 0.9⁴ ≈ 0.66, so 8 attempts all fail with odds ≈ 2e-4; seed 3
        # commits on the third.
        plan = FaultPlan(seed=3, write_error_rate=0.1)
        disk = SimulatedDisk(block_size=8)
        faulty = FaultyDevice(disk, plan)
        policy = RetryPolicy(
            max_attempts=8, base_delay_s=0.0, max_delay_s=0.0, budget_s=1.0
        )
        resilient = ResilientDevice(faulty, retry_policy=policy)
        blocks = _payloads(4)
        write_map(resilient, blocks)
        for block_id, items in blocks.items():
            assert same(read_block(disk, block_id), items)
        # Every attempt decided every member; only the last wrote.
        (attempts,) = set(faulty.ordinals()[1].values())
        assert attempts == 3 and disk.io.writes == len(blocks)
        assert [kind for _, k, kind in faulty.history()
                if k == attempts - 1] == [None] * len(blocks)

    def test_without_policy_failure_propagates(self):
        plan = FaultPlan(seed=0, write_error_rate=1.0)
        faulty = FaultyDevice(SimulatedDisk(block_size=8), plan)
        resilient = ResilientDevice(faulty)
        # One attempt, and the layer's one typed error around it.
        with pytest.raises(StorageUnavailable) as caught:
            write_map(resilient, _payloads(2))
        assert isinstance(caught.value.__cause__, InjectedWriteError)
        assert faulty.history() == [(0, 0, "write_error"), (1, 0, "write_error")]

    def test_group_read_retries_only_the_failing_block(self):
        # Reads are guarded per block (a group of one each): a fault on
        # one member re-reads that member, not the members already read.
        plan = FaultPlan(seed=5, read_error_rate=0.3)
        disk = SimulatedDisk(block_size=8)
        faulty = FaultyDevice(disk, plan, injecting=False)
        blocks = _payloads(12)
        write_map(faulty, blocks)
        faulty.injecting = True
        policy = RetryPolicy(
            max_attempts=8, base_delay_s=0.0, max_delay_s=0.0, budget_s=1.0
        )
        got = read_map(
            ResilientDevice(faulty, retry_policy=policy), list(blocks)
        )
        assert list(got) == list(blocks)
        assert all(same(got[b], blocks[b]) for b in blocks)
        draws = [kind for _, _, kind in faulty.history()]
        assert draws.count("error") > 0
        # One clean decision — and one leaf read — per block, however
        # many errors were decided before it.
        assert draws.count(None) == disk.io.reads == len(blocks)


class TestShardedFanOut:
    def test_group_write_matches_sequential(self):
        def build():
            return ShardedDevice(
                [SimulatedDisk(block_size=8) for _ in range(3)],
                codes_table(3),
            )

        blocks = _payloads(12)
        grouped = build()
        write_map(grouped, blocks)
        sequential = build()
        for block_id, items in blocks.items():
            write_block(sequential, block_id, items)
        for block_id in blocks:
            assert same(
                read_block(grouped, block_id), read_block(sequential, block_id)
            )
        assert grouped.io_totals().writes == len(blocks)
        grouped.close()
        sequential.close()

    def test_multi_shard_failures_aggregate_notes(self):
        class BrokenDisk(SimulatedDisk):
            """Leaf that rejects every write."""

            def write_many(self, codes, payloads):
                raise InjectedWriteError(
                    f"shard down: {sorted(codes.tolist())!r}"
                )

        sharded = ShardedDevice(
            [BrokenDisk(block_size=8) for _ in range(2)], codes_table(2)
        )
        blocks = {i: np.array([1.0]) for i in range(8)}
        assert len({int(sharded.placement[i]) for i in blocks}) == 2
        with pytest.raises(InjectedWriteError) as excinfo:
            write_map(sharded, blocks)
        assert any(
            "also failed" in note
            for note in getattr(excinfo.value, "__notes__", [])
        )
        sharded.close()


class TestStoreBlocks:
    def _tensor_store(self, **spec_kwargs):
        cube = np.arange(64, dtype=float).reshape(8, 8)
        allocation = TensorAllocation(
            axes=(
                subtree_tiling_allocation(8, 4),
                subtree_tiling_allocation(8, 4),
            )
        )
        return TensorBlockStore(
            cube, allocation, storage=StorageSpec(**spec_kwargs)
        )

    def test_store_blocks_matches_per_block_updates(self):
        batched = self._tensor_store(shards=2, cache_blocks=4)
        sequential = self._tensor_store(shards=2, cache_blocks=4)
        ids = batched.device.block_ids()
        payloads = {
            block_id: batched.fetch_block(block_id) * 2.0 for block_id in ids
        }
        batched.store_blocks(payloads)
        for block_id, items in payloads.items():
            sequential.store_blocks({block_id: items})
        for block_id in ids:
            assert same(
                batched.fetch_block(block_id),
                sequential.fetch_block(block_id),
            )
        batched.close()
        sequential.close()

    def test_store_blocks_observes_batch_size_histogram(self):
        with use_registry(MetricsRegistry()) as reg:
            store = self._tensor_store()
            ids = store.device.block_ids()[:3]
            store.store_blocks(
                {block_id: store.fetch_block(block_id) for block_id in ids}
            )
            hist = reg.histogram("storage.blocks_per_write_batch")
            assert hist.count == 1
            store.close()

    def test_empty_store_blocks_is_a_no_op(self):
        store = self._tensor_store()
        before = store.io_snapshot()
        store.store_blocks({})
        assert store.io_since(before).writes == 0
        store.close()

    def test_wavelet_store_group_write_round_trips(self):
        # A 1-D wavelet vector on a one-axis store, as SignalArchive
        # keeps it.
        values = np.arange(32, dtype=float)
        allocation = TensorAllocation(
            axes=(subtree_tiling_allocation(values.size, block_size=8),)
        )
        store = TensorBlockStore(
            values, allocation, storage=StorageSpec(cache_blocks=2, crc=True)
        )
        ids = store.device.block_ids()
        payloads = {
            block_id: store.fetch_block(block_id) + 1.0 for block_id in ids
        }
        store.store_blocks(payloads)
        for block_id, items in payloads.items():
            assert same(store.fetch_block(block_id), items)
        store.close()
