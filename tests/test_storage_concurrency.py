"""Thread-safety of the storage layer: concurrent readers and writers
through ``SimulatedDisk`` and the ``CachingDevice`` middleware.

Three invariants under concurrency:

* **no lost stats updates** — every read/write/hit/miss is counted
  exactly once, so the counters are conserved across any interleaving;
* **no stale reads** — after a write completes, no subsequent read (from
  the cache or the device) may return the pre-write payload, even when a
  concurrent miss was in flight during the write;
* **no torn payloads** — readers always see some complete payload a
  writer stored, never a mixture of two writes.
"""

import threading
import time

import numpy as np

from repro.storage.device import CachingDevice
from repro.storage.disk import SimulatedDisk
from repro.storage.latency import LatencyModel
from tests._blocks import (
    codes_table,
    read_block,
    read_map,
    write_block,
    write_map,
)

# Three block codes with a role each in the cache races below.
HOT, COLD, WARM = 0, 1, 2


def vals(*values):
    """A block payload: the block's values, nothing else."""
    return np.array(values, dtype=float)


def run_threads(targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestStatsConservation:
    def test_concurrent_reads_lose_no_device_counts(self):
        disk = SimulatedDisk(block_size=4)
        for b in range(8):
            write_block(disk, b, vals(float(b)))
        per_thread, n_threads = 300, 8
        base = disk.io.snapshot()

        def reader():
            for i in range(per_thread):
                read_block(disk, i % 8)

        run_threads([reader] * n_threads)
        assert disk.io.delta(base).reads == per_thread * n_threads

    def test_concurrent_cache_traffic_conserves_hit_miss_counts(self):
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=4)  # small: constant evictions
        for b in range(16):
            write_block(cache, b, vals(float(b)))
        base_reads = disk.io.reads
        per_thread, n_threads = 300, 8

        def reader(seed):
            def run():
                for i in range(per_thread):
                    read_block(cache, (i * (seed + 1) + seed) % 16)
            return run

        run_threads([reader(s) for s in range(n_threads)])
        stats = cache.pool_stats
        # A lookup is a hit, a miss, or a miss that rode another read.
        lookups = stats.hits + stats.misses + stats.shared
        assert lookups == per_thread * n_threads
        # Every miss is a device read, and nothing else reads the device.
        assert disk.io.reads - base_reads == stats.misses

    def test_concurrent_writers_lose_no_write_counts(self):
        disk = SimulatedDisk(block_size=4)
        per_thread, n_threads = 200, 6

        def writer(seed):
            def run():
                for i in range(per_thread):
                    write_block(
                        disk, 10 * seed + i % 10, vals(float(i), float(seed))
                    )
            return run

        run_threads([writer(s) for s in range(n_threads)])
        assert disk.io.writes == per_thread * n_threads
        assert len(disk) == n_threads * 10


class TestCoherenceUnderConcurrency:
    def test_no_stale_reads_with_concurrent_writes(self):
        # A writer bumps a monotonically increasing version through the
        # stack; readers go through the cache.  A read that returns
        # version v after a write of version w > v completed *before the
        # read started* would be a stale read.  Monotonicity per reader
        # is the checkable proxy: cached payloads may lag the in-flight
        # write, but they may never roll back past a version the same
        # reader already observed.
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=2)
        write_map(cache, {b: vals(0.0) for b in (HOT, COLD, WARM)})
        stop = threading.Event()
        errors = []

        def writer():
            for version in range(1, 400):
                write_block(cache, HOT, vals(float(version)))
            stop.set()

        def reader(batch):
            # A group's misses are published together, so the hot block
            # rides multi-block groups (over capacity, too) as well.
            def run():
                last = -1.0
                while not stop.is_set():
                    seen = read_map(cache, batch)[HOT][0]
                    if seen < last:
                        errors.append((last, seen))
                        return
                    last = seen
            return run

        run_threads(
            [writer]
            + [reader([HOT])] * 2
            + [reader([COLD, HOT]), reader([HOT, WARM, COLD])]
        )
        assert errors == []
        # After the dust settles the cache must serve the final payload —
        # the in-flight-miss window may not have cached a stale one.
        assert read_block(cache, HOT).tolist() == [399.0]
        assert read_block(cache, HOT).tolist() == [399.0]  # now from cache

    def test_a_reader_after_a_write_never_joins_a_pre_write_flight(
        self, monkeypatch
    ):
        # Reader A's read of HOT is held open after it read the old
        # bits, and B joins A's flight; then a write of HOT completes.
        # C, arriving after the write, leads its own read (held open
        # too), and A and B, which began before the write, still get
        # A's bits.  A landing must not drop C's flight: D, arriving
        # while C reads, joins C.
        from repro.storage.device import StorageSpec

        built = StorageSpec(cache_blocks=4).build(
            block_size=4, placement=codes_table(1)
        )
        device, cache = built.device, built.cache
        write_block(device, HOT, vals(1.0))
        inner_read = cache.inner.read_many
        calls = []
        entered = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]

        def gated(codes):
            group = inner_read(codes)
            calls.append(codes.tolist())
            held = len(calls) - 1  # A's read, then C's
            if held < 2:
                entered[held].set()
                assert release[held].wait(30)
            return group

        monkeypatch.setattr(cache.inner, "read_many", gated)
        got = {}

        def start(name):
            def run():
                got[name] = read_block(device, HOT)
            thread = threading.Thread(target=run)
            thread.start()
            return thread

        def until(condition):
            deadline = time.monotonic() + 30
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.001)

        a = start("a")
        assert entered[0].wait(30)
        b = start("b")
        until(lambda: cache._landed._waiters)  # B waits on A's flight
        write_block(device, HOT, vals(2.0))
        c = start("c")
        assert entered[1].wait(30)  # C leads its own read
        release[0].set()
        for thread in (a, b):
            thread.join(30)
            assert not thread.is_alive()
        assert got["a"].tolist() == [1.0] and got["b"] is got["a"]
        d = start("d")
        until(lambda: cache._landed._waiters or not d.is_alive())
        release[1].set()
        for thread in (c, d):
            thread.join(30)
            assert not thread.is_alive()
        assert calls == [[HOT], [HOT]]  # D rode C's read
        assert got["c"].tolist() == [2.0] and got["d"] is got["c"]
        assert cache._inflight == {}
        assert cache.pool_stats.shared == 2
        # A's pre-write payload was not published; C's is the cached one.
        assert read_block(device, HOT).tolist() == [2.0]
        assert len(calls) == 2

    def test_no_torn_payloads(self):
        # Writers store internally consistent payloads [v, v];
        # readers must never observe [a, b] with a != b.
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=2)
        write_block(cache, 0, vals(0.0, 0.0))
        stop = threading.Event()
        torn = []

        def writer(offset):
            def run():
                for i in range(300):
                    v = float(i * 10 + offset)
                    write_block(cache, 0, vals(v, v))
            return run

        def reader():
            while not stop.is_set():
                payload = read_block(cache, 0)
                if payload[0] != payload[1]:
                    torn.append(payload)
                    return

        writers = [writer(1), writer(2)]

        def all_writers():
            run_threads(writers)
            stop.set()

        run_threads([all_writers] + [reader] * 3)
        assert torn == []

    def test_mutating_a_concurrent_copy_never_leaks_into_cache(self):
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=2)
        write_block(cache, 0, vals(1.0))
        refused = []

        def clobber():
            for _ in range(200):
                shared = read_block(cache, 0)
                try:
                    shared[0] = -99.0  # the one shared instance
                except ValueError:
                    refused.append(1)

        run_threads([clobber] * 4)
        assert len(refused) == 800
        assert read_block(cache, 0).tolist() == [1.0]
        assert read_block(disk, 0).tolist() == [1.0]


class TestLockOrderUnderStress:
    def test_full_stack_hammering_creates_no_lock_order_cycles(
        self, monkeypatch
    ):
        # The watcher decides at lock-creation time, so it must be
        # enabled before the stack under test is built.
        from repro.faults.plan import FaultPlan
        from repro.lint import lockwatch
        from repro.storage.device import StorageSpec

        monkeypatch.setenv(lockwatch.ENV_FLAG, "1")
        spec = StorageSpec(
            shards=2,
            cache_blocks=4,
            fault_plan=FaultPlan(seed=7, torn_rate=0.0),
        )
        device = spec.build(block_size=4, placement=codes_table(2)).device
        for b in range(16):
            write_block(device, b, vals(float(b)))

        def worker(seed):
            def run():
                for i in range(150):
                    key = (i * (seed + 1) + seed) % 16
                    if i % 5 == 0:
                        write_block(device, key, vals(float(i)))
                    else:
                        read_block(device, key)
            return run

        run_threads([worker(s) for s in range(6)])
        lockwatch.assert_clean()


class TestSimulatedLatency:
    def test_latency_defaults_off_and_validates(self):
        import pytest

        from repro.core.errors import StorageError

        assert SimulatedDisk(block_size=2).latency is None
        with pytest.raises(StorageError):
            LatencyModel(base_s=-0.1)

    def test_concurrent_reads_overlap_their_latency(self):
        import time

        disk = SimulatedDisk(block_size=2,
                             latency=LatencyModel(base_s=0.01))
        write_block(disk, 0, vals(1.0))
        n = 8
        start = time.perf_counter()
        run_threads([lambda: read_block(disk, 0)] * n)
        elapsed = time.perf_counter() - start
        # Serial reads would cost n * 10 ms; overlapping reads must land
        # well under that (generous bound to stay robust on slow CI).
        assert elapsed < n * 0.01 * 0.8
