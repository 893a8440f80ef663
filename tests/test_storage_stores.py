"""Tests for disk, caching device, block stores, BLOB store and scheduler."""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.storage.allocation import (
    TensorAllocation,
    sequential_allocation,
    subtree_tiling_allocation,
)
from repro.storage.blobstore import BlobStore
from repro.storage.blockstore import TensorBlockStore
from repro.storage.device import CachingDevice
from repro.storage.disk import SimulatedDisk
from repro.storage.scheduler import schedule_blocks
from repro.storage.sharding import placement_table
from repro.wavelets.errortree import leaf_path
from repro.storage.device import StorageSpec
from tests._blocks import read_block, write_block


RNG = np.random.default_rng(41)


def vals(*values):
    """A block payload: the block's values, nothing else."""
    return np.array(values, dtype=float)


class TestSimulatedDisk:
    def test_write_read_roundtrip(self):
        disk = SimulatedDisk(block_size=4)
        write_block(disk, 0, vals(1.5, -0.5))
        assert read_block(disk, 0).tolist() == [1.5, -0.5]
        assert disk.io.reads == 1
        assert disk.io.writes == 1

    def test_reads_counted(self):
        disk = SimulatedDisk(block_size=4)
        write_block(disk, 7, vals(0.0))
        for _ in range(5):
            read_block(disk, 7)
        assert disk.io.reads == 5

    def test_overfull_block_rejected(self):
        disk = SimulatedDisk(block_size=2)
        with pytest.raises(StorageError):
            write_block(disk, 0, np.zeros(3))

    def test_missing_block(self):
        with pytest.raises(StorageError):
            read_block(SimulatedDisk(block_size=2), 9)

    def test_stats_delta(self):
        disk = SimulatedDisk(block_size=4)
        write_block(disk, 0, vals(1.0))
        before = disk.io.snapshot()
        read_block(disk, 0)
        read_block(disk, 0)
        delta = disk.io.delta(before)
        assert delta.reads == 2 and delta.writes == 0

    def test_occupancy(self):
        disk = SimulatedDisk(block_size=4)
        assert disk.occupancy() == 0.0
        write_block(disk, 0, vals(1.0, 2.0))
        assert disk.occupancy() == pytest.approx(0.5)

    def test_returns_copies(self):
        # Nothing a caller holds reaches stored state: what is read is
        # read-only, and what was written is no longer the caller's
        # buffer.
        disk = SimulatedDisk(block_size=4)
        mine = vals(1.0)
        write_block(disk, 0, mine)
        mine[0] = 99.0
        block = read_block(disk, 0)
        with pytest.raises(ValueError):
            block[0] = 99.0
        assert read_block(disk, 0)[0] == 1.0

    def test_non_array_payload_rejected(self):
        disk = SimulatedDisk(block_size=4)
        for bad in ({0: 1.0}, [1.0], np.zeros((2, 2))):
            with pytest.raises(StorageError):
                write_block(disk, 0, bad)


class TestCachingDevice:
    def test_hits_avoid_device_reads(self):
        disk = SimulatedDisk(block_size=4)
        write_block(disk, 0, vals(1.0))
        pool = CachingDevice(disk, capacity=2)
        read_block(pool, 0)
        read_block(pool, 0)
        assert disk.io.reads == 1
        assert pool.pool_stats.hits == 1
        assert pool.pool_stats.misses == 1

    def test_lru_eviction(self):
        disk = SimulatedDisk(block_size=4)
        for b in range(3):
            write_block(disk, b, vals(float(b)))
        pool = CachingDevice(disk, capacity=2)
        read_block(pool, 0)
        read_block(pool, 1)
        read_block(pool, 2)  # evicts 0
        read_block(pool, 0)  # miss again
        assert pool.pool_stats.misses == 4

    def test_lru_recency_updates(self):
        disk = SimulatedDisk(block_size=4)
        for b in range(3):
            write_block(disk, b, vals(float(b)))
        pool = CachingDevice(disk, capacity=2)
        read_block(pool, 0)
        read_block(pool, 1)
        read_block(pool, 0)  # 0 now most recent
        read_block(pool, 2)  # evicts 1
        read_block(pool, 0)  # hit
        assert pool.pool_stats.hits == 2

    def test_invalidate(self):
        disk = SimulatedDisk(block_size=4)
        write_block(disk, 0, vals(1.0))
        pool = CachingDevice(disk, capacity=2)
        read_block(pool, 0)
        write_block(disk, 0, vals(2.0))
        pool.invalidate(0)
        assert read_block(pool, 0)[0] == 2.0

    def test_hit_rate(self):
        disk = SimulatedDisk(block_size=4)
        write_block(disk, 0, vals(1.0))
        pool = CachingDevice(disk, capacity=1)
        assert pool.pool_stats.hit_rate == 0.0
        read_block(pool, 0)
        read_block(pool, 0)
        assert pool.pool_stats.hit_rate == 0.5

    def test_capacity_validated(self):
        with pytest.raises(StorageError):
            CachingDevice(SimulatedDisk(block_size=2), capacity=0)


class TestWaveletBlockStore:
    """1-D wavelet coefficients on a one-axis tensor store, as
    :class:`~repro.storage.retrieval.SignalArchive` keeps a signal."""

    def _store(self, n=64, block=7, pool=None):
        flat = RNG.normal(size=n)
        alloc = TensorAllocation(axes=(subtree_tiling_allocation(n, block),))
        return flat, TensorBlockStore(
            flat, alloc, storage=StorageSpec(cache_blocks=pool)
        )

    def test_fetch_returns_exact_values(self):
        flat, store = self._store()
        indices = [0, 5, 17, 63]
        got = store.fetch([(i,) for i in indices])
        for i in indices:
            assert got[(i,)] == pytest.approx(flat[i])

    def test_fetch_counts_block_reads(self):
        flat, store = self._store(n=2**10, block=7)
        before = store.io_snapshot()
        path = leaf_path(123, 2**10)
        store.fetch([(i,) for i in path])
        reads = store.io_since(before).reads
        assert reads == len(store.allocation.axes[0].blocks_for(path))
        assert reads <= 5  # the tiling bound for J=10, h=3

    def test_pool_amortizes_repeated_queries(self):
        flat, store = self._store(n=256, block=7, pool=64)
        path = [(i,) for i in leaf_path(9, 256)]
        store.fetch(path)
        before = store.io_snapshot()
        store.fetch(path)
        assert store.io_since(before).reads == 0

    def test_length_mismatch_rejected(self):
        alloc = TensorAllocation(axes=(sequential_allocation(16, 4),))
        with pytest.raises(StorageError):
            TensorBlockStore(np.zeros(8), alloc)

    def test_data_norm(self):
        flat, store = self._store()
        assert store.data_norm == pytest.approx(float(np.linalg.norm(flat)))


class TestTensorBlockStore:
    def _store(self):
        cube = RNG.normal(size=(16, 16))
        alloc = TensorAllocation(
            axes=(
                subtree_tiling_allocation(16, 3),
                subtree_tiling_allocation(16, 3),
            )
        )
        return cube, TensorBlockStore(cube, alloc)

    def test_fetch_values(self):
        cube, store = self._store()
        got = store.fetch([(0, 0), (3, 7), (15, 15)])
        assert got[(3, 7)] == pytest.approx(cube[3, 7])

    def test_io_counting(self):
        cube, store = self._store()
        before = store.io_snapshot()
        indices = [(0, 0), (0, 1), (15, 15)]
        store.fetch(indices)
        assert store.io_since(before).reads == len(store.blocks_for(indices))

    def test_shape_mismatch_rejected(self):
        alloc = TensorAllocation(axes=(subtree_tiling_allocation(16, 3),))
        with pytest.raises(StorageError):
            TensorBlockStore(np.zeros((8,)), alloc)

    def test_norm(self):
        cube, store = self._store()
        assert store.data_norm == pytest.approx(float(np.linalg.norm(cube)))


class TestBlobStore:
    def test_put_get_roundtrip(self):
        store = BlobStore()
        ref = store.put("band0", b"\x01\x02\x03")
        assert store.get(ref) == b"\x01\x02\x03"
        assert ref.n_bytes == 3

    def test_array_roundtrip(self):
        store = BlobStore()
        arr = RNG.normal(size=32)
        ref = store.put_array("coeffs", arr)
        np.testing.assert_allclose(store.get_array(ref), arr)

    def test_location_ids_unique(self):
        store = BlobStore()
        refs = [store.put(f"b{i}", b"x") for i in range(5)]
        assert len({r.location_id for r in refs}) == 5

    def test_delete(self):
        store = BlobStore()
        ref = store.put("gone", b"data")
        store.delete(ref)
        with pytest.raises(StorageError):
            store.get(ref)
        with pytest.raises(StorageError):
            store.delete(ref)

    def test_catalog_and_totals(self):
        store = BlobStore()
        store.put("a", b"12")
        store.put("b", b"3456")
        assert len(store) == 2
        assert store.total_bytes == 6
        names = [r.name for r in store.catalog()]
        assert names == ["a", "b"]

    def test_non_bytes_rejected(self):
        with pytest.raises(StorageError):
            BlobStore().put("bad", [1, 2, 3])

    def test_device_round_trip_through_two_crc_shards(self):
        # §4's raw-disk plan: each blob is the block whose code is its
        # location id, on a sharded, CRC-framed stack.
        built = StorageSpec(shards=2, crc=True).build(
            block_size=8, placement=placement_table(8, 2)
        )
        store = BlobStore(device=built.device)
        nan_bits = np.array([np.nan, -0.0, 1.5]).view(np.uint8).tobytes()
        blobs = [b"", b"\x01\x02\x03", bytes(range(64)), nan_bits, b"x" * 9]
        refs = [store.put(f"b{i}", blob) for i, blob in enumerate(blobs)]
        arr = RNG.normal(size=5)
        refs.append(store.put_array("coeffs", arr))
        assert [ref.location_id for ref in refs] == list(range(6))
        assert sorted(built.device.block_ids()) == list(range(6))
        assert {built.shard_of(ref.location_id) for ref in refs} == {0, 1}
        assert [store.get(ref) for ref in refs[:5]] == blobs
        assert store.get_array(refs[5]).tobytes() == arr.tobytes()
        assert store.total_bytes == sum(map(len, blobs)) + 40
        with pytest.raises(StorageError):
            store.put("too big", bytes(65))  # past 8 words
        built.close()


class TestScheduler:
    @staticmethod
    def _schedule(alloc, entries, norms=None):
        # Flat indices are the keys of a one-axis allocation.
        keys = np.array(list(entries)).reshape(len(entries), -1)
        values = np.array(list(entries.values()))
        codes, _slots = alloc.locate(keys)
        return values, schedule_blocks(
            values, codes, alloc,
            norms or dict.fromkeys(range(alloc.n_codes), 1.0),
        )

    def test_blocks_ordered_by_importance(self):
        alloc = TensorAllocation(axes=(sequential_allocation(16, 4),))
        entries = {0: 10.0, 1: 0.1, 8: 3.0, 15: -20.0}
        _, schedule = self._schedule(alloc, entries)
        scores = schedule.masses.tolist()
        assert scores == sorted(scores, reverse=True)
        # Block of coefficient 15 carries the biggest energy.
        assert schedule.codes[0] == int(alloc.axes[0].block_of[15])
        # ... unless the data stored nothing there: mass, not energy.
        _, by_mass = self._schedule(alloc, entries, {0: 1.0, 2: 1.0, 3: 0.0})
        assert by_mass.codes.tolist() == [0, 2, 3]

    def test_entries_grouped_per_block(self):
        alloc = TensorAllocation(axes=(sequential_allocation(16, 4),))
        entries = {0: 1.0, 9: 5.0, 1: 2.0, 2: 3.0}
        values, schedule = self._schedule(alloc, entries)
        assert schedule.codes.tolist() == [2, 0]
        assert values[schedule.entries(0)].tolist() == [5.0]
        assert values[schedule.entries(1)].tolist() == [1.0, 2.0, 3.0]

    def test_tuple_keys_supported(self):
        alloc = TensorAllocation(axes=(
            sequential_allocation(8, 4), sequential_allocation(8, 4),
        ))
        entries = {(0, 1): 2.0, (5, 5): -1.0}
        _, schedule = self._schedule(alloc, entries)
        assert schedule.codes.tolist() == [0, 3]
        assert [alloc.block_tuple(c) for c in schedule.codes] == [
            (0, 0), (1, 1)
        ]
