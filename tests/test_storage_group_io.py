"""Vectored group I/O: a block group is the unit of work at the leaf,
in the shard fan-out and in the scan coordinator.

The simulated seek is the cost model, so what these tests pin is that
grouping changes *how* the device time is waited (one sleep per group)
and never *how much* of it there is: the same draws from the same
seeded schedule, the same counters, the same errors.
"""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import ScanCoordinator
from repro.storage.device import StorageSpec
from repro.storage.disk import SimulatedDisk
from repro.storage.latency import LatencyModel
from repro.storage.placement import place
from repro.storage.sharding import ShardedDevice


def vals(*values):
    return np.array(values, dtype=float)


@pytest.fixture
def slept(monkeypatch):
    """Every ``time.sleep`` argument requested while the test runs
    (``list.append`` is atomic, so pool threads may record too)."""
    requested: list[float] = []
    monkeypatch.setattr(time, "sleep", requested.append)
    return requested


def spiky(seed=7):
    return LatencyModel(base_s=1e-3, spike_rate=0.3, seed=seed)


def seeks(model, n):
    """The next ``n`` reads' delays added up one by one, in order — what
    ``n`` single reads sleep in total."""
    total = 0.0
    for _ in range(n):
        total += model.delay()
    return total


def filled_disk(n, latency=None):
    disk = SimulatedDisk(block_size=4, latency=latency)
    disk.write_many({b: vals(float(b)) for b in range(n)})
    return disk


class TestLeafGroupRead:
    def test_a_group_waits_the_sum_of_its_members_seeks_once(self, slept):
        disk = filled_disk(8, spiky())
        out = disk.read_many(range(8))
        twin = spiky()
        assert slept == [seeks(twin, 8)]
        assert disk.latency.spikes == twin.spikes > 0
        assert disk.io.reads == 8
        assert [out[b].tolist() for b in range(8)] == [[float(b)] for b in range(8)]

    def test_consecutive_groups_continue_one_schedule(self, slept):
        # 3 + 5 members draw the same eight delays as 8 single reads.
        disk = filled_disk(8, spiky())
        disk.read_many([0, 1, 2])
        disk.read_many([3, 4, 5, 6, 7])
        twin = spiky()
        assert slept == [seeks(twin, 3), seeks(twin, 5)]
        assert disk.latency.spikes == twin.spikes

    def test_a_zero_latency_disk_never_sleeps(self, slept):
        filled_disk(8).read_many(range(8))
        filled_disk(8, LatencyModel()).read_many(range(8))
        filled_disk(8, spiky()).read_many([])
        assert slept == []

    def test_a_repeated_member_is_read_and_charged_again(self, slept):
        disk = filled_disk(2, LatencyModel(base_s=1e-3))
        assert list(disk.read_many([0, 1, 0])) == [0, 1]
        assert disk.io.reads == 3
        assert slept == [1e-3 + 1e-3 + 1e-3]

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_a_missing_member_charges_the_members_before_it(self, slept, k):
        disk = filled_disk(8, spiky())
        ids = list(range(8))
        ids[k] = "absent"
        with pytest.raises(StorageError, match="no such block 'absent'"):
            disk.read_many(ids)
        twin = spiky()
        owed = seeks(twin, k)
        assert slept == ([owed] if k else [])
        assert disk.io.reads == k
        assert disk.latency.spikes == twin.spikes

    def test_two_threads_groups_on_one_disk_overlap(self):
        # The wait is outside the directory lock: two callers' 60 ms
        # groups take about 60 ms together, not 120.
        disk = filled_disk(12, LatencyModel(base_s=0.01))
        barrier = threading.Barrier(3)

        def read(ids):
            barrier.wait(10)
            disk.read_many(ids)

        threads = [
            threading.Thread(target=read, args=(range(lo, lo + 6),))
            for lo in (0, 6)
        ]
        for t in threads:
            t.start()
        barrier.wait(10)
        started = time.perf_counter()
        for t in threads:
            t.join(10)
        wall = time.perf_counter() - started
        assert not any(t.is_alive() for t in threads)
        assert disk.io.reads == 12
        assert wall < 0.1  # the sum of both groups is 0.12 s


class TestLeafGroupWrite:
    def test_a_rejected_payload_writes_no_member(self):
        # Payloads are frozen before the directory is touched, so a
        # group with a bad member leaves the device as it was.
        disk = filled_disk(1)
        with pytest.raises(StorageError, match="exceed"):
            disk.write_many({0: vals(9.0), 1: vals(1, 2, 3, 4, 5)})
        assert disk.read_many([0])[0].tolist() == [0.0]
        assert disk.io.writes == 1 and disk.block_ids() == [0]

    def test_a_group_lands_frozen_and_counted(self):
        disk = SimulatedDisk(block_size=4)
        mine = vals(1.0, 2.0)
        disk.write_many({"a": mine, "b": b"frame", "a2": vals(3.0)})
        mine[0] = -1.0  # the caller's buffer is not the stored payload
        out = disk.read_many(["a", "b", "a2"])
        assert out["a"].tolist() == [1.0, 2.0] and out["b"] == b"frame"
        assert not out["a"].flags.writeable
        assert disk.io.writes == 3


block_id_strategy = st.one_of(
    st.integers(0, 40),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)


class TestByShard:
    @settings(max_examples=150, deadline=None)
    @given(
        n_shards=st.integers(1, 8),
        written=st.lists(block_id_strategy, max_size=30),
        asked=st.lists(block_id_strategy, max_size=40),
    )
    def test_groups_are_first_touched_and_keep_the_given_order(
        self, n_shards, written, asked
    ):
        # Over placed (memoized) and never-written ids alike.
        device = ShardedDevice(
            [SimulatedDisk(block_size=2) for _ in range(n_shards)],
            fanout_workers=1,
        )
        device.write_many({b: vals(0.0) for b in written})
        assert set(device._placement) == set(written)
        owners = [place(b, n_shards) for b in asked]
        expected = [
            (shard, [b for b, s in zip(asked, owners) if s == shard])
            for shard in dict.fromkeys(owners)
        ]
        assert device._by_shard(asked) == expected
        assert device._by_shard(iter(asked)) == expected


class _Shard:
    """A recording inner device; ``fail`` makes both ops raise."""

    block_size = 4

    def __init__(self, label, fail=False):
        self.label, self.fail = label, fail
        self.written: dict = {}
        self.threads: list[str] = []

    def _enter(self):
        self.threads.append(threading.current_thread().name)
        if self.fail:
            raise StorageError(f"{self.label} is down")

    def read_many(self, ids):
        self._enter()
        return {b: vals(1.0) for b in ids}

    def write_many(self, blocks):
        self._enter()
        self.written.update(blocks)


# Placement over four shards (pinned in test_storage_sharding):
# 0 -> 1, 1 -> 3, 42 -> 0, (3, 1) -> 2.
FOUR = [0, 1, 42, (3, 1)]


class TestFanOut:
    def test_the_first_group_runs_on_the_calling_thread(self):
        shards = [_Shard(f"s{i}") for i in range(4)]
        device = ShardedDevice(shards)
        assert list(device.read_many(FOUR)) == FOUR
        me = threading.current_thread().name
        assert shards[1].threads == [me]  # block 0's shard: first touched
        for other in (0, 2, 3):
            assert shards[other].threads[0].startswith("shard-read")
        device.close()

    def test_first_and_pooled_failures_first_raised_other_noted(self):
        shards = [
            _Shard("s0"), _Shard("s1", fail=True),
            _Shard("s2", fail=True), _Shard("s3"),
        ]
        device = ShardedDevice(shards)
        with pytest.raises(StorageError, match="s1 is down") as excinfo:
            device.write_many({b: vals(2.0) for b in FOUR})
        assert excinfo.value.__notes__ == [
            "shard 2 also failed: StorageError: s2 is down"
        ]
        # Every group settled: the surviving shards' writes landed.
        assert list(shards[0].written) == [42]
        assert list(shards[3].written) == [1]
        device.close()

    def test_a_pooled_failure_alone_carries_no_notes(self):
        shards = [_Shard("s0"), _Shard("s1"), _Shard("s2"),
                  _Shard("s3", fail=True)]
        device = ShardedDevice(shards)
        with pytest.raises(StorageError, match="s3 is down") as excinfo:
            device.read_many(FOUR)
        assert getattr(excinfo.value, "__notes__", []) == []
        assert all(len(s.threads) == 1 for s in shards)
        device.close()

    def test_width_one_and_single_groups_never_touch_the_pool(self):
        narrow = ShardedDevice(
            [_Shard(f"s{i}") for i in range(4)], fanout_workers=1
        )
        narrow.write_many({b: vals(2.0) for b in FOUR})
        assert list(narrow.read_many(FOUR)) == FOUR
        wide = ShardedDevice([_Shard(f"s{i}") for i in range(4)])
        wide.write_many({0: vals(2.0), 2: vals(2.0)})  # both on shard 1
        assert list(wide.read_many([0, 2])) == [0, 2]
        assert wide.read_many([]) == {}
        assert narrow._pool is None and wide._pool is None
        me = threading.current_thread().name
        for device in (narrow, wide):
            assert {t for s in device.devices for t in s.threads} == {me}


class _GatedStore:
    """Holds the first bulk read open until the test releases it."""

    def __init__(self, coordinator_box, fail=False):
        self.box, self.fail = coordinator_box, fail
        self.entered = threading.Event()
        self.release = threading.Event()
        self.events_seen: list = []

    def fetch_blocks(self, block_ids):
        self.entered.set()
        assert self.release.wait(30)
        self.events_seen = [
            flight.event for flight in self.box[0]._inflight.values()
        ]
        if self.fail:
            raise StorageError("leader's read failed")
        return {b: vals(float(b)) for b in block_ids}


class TestCoordinatorFlights:
    def test_an_uncontended_fetch_allocates_no_event(self):
        box: list = []
        store = _GatedStore(box)
        store.release.set()
        box.append(ScanCoordinator(store))
        out = box[0].fetch_blocks([1, 2, 3])
        assert sorted(out) == [1, 2, 3]
        assert store.events_seen == [None, None, None]
        assert box[0]._inflight == {}
        assert box[0].stats()["shared"] == 0

    @pytest.mark.parametrize("leader_fails", [False, True])
    def test_a_piggy_backing_reader_gets_the_leaders_outcome(
        self, leader_fails
    ):
        box: list = []
        store = _GatedStore(box, fail=leader_fails)
        coordinator = ScanCoordinator(store)
        box.append(coordinator)
        outcomes: dict = {}

        def ask(name, ids):
            def run():
                try:
                    outcomes[name] = coordinator.fetch_blocks(ids)
                except StorageError as exc:
                    outcomes[name] = exc
            return threading.Thread(target=run)

        leader, follower = ask("leader", [1, 2]), ask("follower", [2])
        leader.start()
        assert store.entered.wait(30)
        follower.start()
        # The follower attaches to block 2's flight — the only Event.
        deadline = time.monotonic() + 30
        while not any(f.event for f in list(coordinator._inflight.values())):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        store.release.set()
        leader.join(30)
        follower.join(30)
        assert not leader.is_alive() and not follower.is_alive()
        assert [e is not None for e in store.events_seen] == [False, True]
        assert coordinator.stats()["shared"] == 1
        assert coordinator.stats()["fetches"] == 2
        if leader_fails:
            assert outcomes["follower"] is outcomes["leader"]
            assert isinstance(outcomes["leader"], StorageError)
        else:
            assert outcomes["follower"][2] is outcomes["leader"][2]


# -- the simulated-time invariant ------------------------------------------

CUBE_SHAPE = (32, 32, 16)


def seeded_queries(seed, count=40):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        ranges = []
        for side in CUBE_SHAPE:
            lo = int(rng.integers(0, side - 2))
            ranges.append((lo, int(rng.integers(lo + 1, side))))
        queries.append(RangeSumQuery.count(ranges))
    return queries


@pytest.mark.parametrize("latency", [
    LatencyModel(base_s=0.0005),
    LatencyModel(base_s=0.0005, spike_rate=0.2, spike_s=0.003, seed=11),
], ids=["cluster_mixed_io", "spiky"])
def test_no_simulated_seek_is_avoided(monkeypatch, slept, latency):
    """The ``cluster_mixed_io`` storage spec under 40 seeded queries:
    every requested sleep is, bit for bit, the sum of the per-member
    delays the parent commit slept one by one — replayed here from
    equal-seed models over the group sizes each leaf served — and the
    total is ``misses × base_s + spikes × spike_s``."""
    groups: dict[int, list[int]] = {}
    real_read = SimulatedDisk.read_many

    def recording_read(self, block_ids):
        ids = list(block_ids)
        groups.setdefault(id(self), []).append(len(ids))
        return real_read(self, ids)

    rng = np.random.default_rng(2003)
    engine = ProPolyneEngine(
        rng.poisson(3.0, CUBE_SHAPE).astype(float), max_degree=1,
        block_size=7,
        storage=StorageSpec(shards=2, cache_blocks=32, latency=latency),
    )
    leaves = engine.store._built.disks
    before = [leaf.io.reads for leaf in leaves]
    monkeypatch.setattr(SimulatedDisk, "read_many", recording_read)
    del slept[:]  # populate's own reads are not the measured run
    for leaf in leaves:
        leaf.latency.reset()
    answers = [engine.evaluate_exact(q) for q in seeded_queries(2003)]
    engine.store.close()

    expected, misses, spikes = [], 0, 0
    for leaf, reads_before in zip(leaves, before):
        twin = LatencyModel(
            leaf.latency.base_s, leaf.latency.spike_rate,
            leaf.latency.spike_s, leaf.latency.seed,
        )
        for size in groups[id(leaf)]:
            expected.append(seeks(twin, size))
        assert leaf.latency.spikes == twin.spikes
        assert leaf.io.reads - reads_before == sum(groups[id(leaf)])
        misses += leaf.io.reads - reads_before
        spikes += twin.spikes
    assert misses > 400 and max(map(max, groups.values())) > 8
    assert (spikes > 0) == (latency.spike_rate > 0)
    assert sorted(slept) == sorted(t for t in expected if t > 0.0)
    assert math.fsum(slept) == pytest.approx(
        misses * latency.base_s + spikes * latency.spike_s, rel=1e-12, abs=0
    )
    assert len(answers) == 40 and all(np.isfinite(a) for a in answers)
