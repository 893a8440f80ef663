"""The sharded block store: placement, fan-out, equivalence, degradation.

The acceptance bar for sharding is *transparency*: a sharded stack must
be indistinguishable from an unsharded one at the query interface —
``evaluate_exact`` bitwise-identical for any shard count — while one
failed shard degrades only itself.
"""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.allocation import TensorAllocation, subtree_tiling_allocation
from repro.storage.device import StorageSpec
from repro.storage.disk import BlockGroup, SimulatedDisk
from repro.storage.placement import place
from repro.storage.sharding import ShardedDevice, placement_table
from tests._blocks import (
    codes_table,
    read_block,
    read_map,
    write_block,
    write_map,
)


def vals(*values):
    """A block payload: the block's values, nothing else."""
    return np.array(values, dtype=float)


def listed(blocks: dict) -> dict:
    """``{code: payload}`` with payloads as lists, for ``==``."""
    return {code: items.tolist() for code, items in blocks.items()}


def build_sharded(n_shards, block_size=8, **kwargs):
    return ShardedDevice(
        [SimulatedDisk(block_size=block_size) for _ in range(n_shards)],
        codes_table(n_shards), **kwargs,
    )


# The e2e benchmark's three sharded stores: (cube shape, shards).
E2E_STORES = [((64, 64, 32), 4), ((128, 128), 4), ((64, 64), 2)]


class TestPlacement:
    def test_every_block_lands_on_exactly_one_shard(self):
        ids = list(range(200)) + [(i, j) for i in range(10)
                                  for j in range(10)]
        for n in (1, 2, 3, 4, 7):
            for block_id in ids:
                assert 0 <= place(block_id, n) < n

    def test_placement_is_deterministic_across_runs(self):
        # Hard-coded expectations: the CRC32-of-repr placement must be
        # stable across processes, machines and Python versions — a
        # placement change would orphan every block already stored.
        assert {b: place(b, 2) for b in (0, 1, 2, 3, 42)} == \
            {0: 1, 1: 1, 2: 1, 3: 1, 42: 0}
        assert {b: place(b, 4) for b in (0, 1, 2, 3, 42)} == \
            {0: 1, 1: 3, 2: 1, 3: 3, 42: 0}
        assert place((0, 0), 4) == 3
        assert place((1, 2), 4) == 1
        assert place((3, 1), 4) == 2
        assert place("blob", 4) == 0

    def test_placement_spreads_blocks(self):
        counts = [0, 0, 0, 0]
        for b in range(400):
            counts[place(b, 4)] += 1
        assert min(counts) > 0  # no empty shard over a real id range

    def test_sharded_device_routes_by_placement(self):
        dev = build_sharded(4)
        for b in range(32):
            write_block(dev, b, vals(float(b)))
        for b in range(32):
            shard = dev.placement[b]
            assert shard == place(b, 4)
            for i, inner in enumerate(dev.devices):
                assert inner.has_block(b) == (i == shard)


    def test_placement_table_is_fixed_and_routes_every_code(self):
        # The table is built once, from place() of each code's block id,
        # and neither reads nor writes change it.
        dev = ShardedDevice(
            [SimulatedDisk(block_size=8) for _ in range(4)],
            placement_table(((code // 4, code % 4) for code in range(16)), 4),
        )
        table = dev.placement.copy()
        assert table.tolist() == [
            place((code // 4, code % 4), 4) for code in range(16)
        ]
        assert not dev.placement.flags.writeable
        write_block(dev, 3, vals(3.0))
        write_map(dev, {9: vals(1.0), 7: vals(7.0)})
        assert np.array_equal(dev.placement, table)
        for code in (3, 9, 7):
            assert [d.has_block(code) for d in dev.devices] == [
                shard == table[code] for shard in range(4)
            ]
        assert sorted(dev.block_ids()) == [3, 7, 9]
        assert listed(read_map(dev, [7, 9, 3])) == {
            7: [7.0], 9: [1.0], 3: [3.0],
        }
        # A code past the table is not a block of this store.
        with pytest.raises(IndexError):
            dev.read_many([16])
        with pytest.raises(IndexError):
            write_block(dev, 16, vals(0.0))

    @pytest.mark.parametrize("shards", [2, 3, 4, 5])
    @pytest.mark.parametrize("shape, block_size", [
        ((64,), 7), ((16, 32), 5), ((64, 64, 32), 7), ((8, 2, 16), 3),
    ])
    def test_the_table_is_the_per_code_placement(self, shape, block_size, shards):
        # The block tuples come from the grid at once; each code's
        # placement is still place() of its own block_tuple.
        allocation = TensorAllocation(axes=tuple(
            subtree_tiling_allocation(n, block_size) for n in shape
        ))
        want = [place(allocation.block_tuple(code), shards)
                for code in range(allocation.n_codes)]
        table = placement_table(allocation.block_tuples(), shards)
        assert table.dtype == np.intp and table.tolist() == want

    @pytest.mark.parametrize("shape, shards", E2E_STORES)
    def test_every_code_of_the_e2e_stores_is_placed_by_its_block_tuple(
        self, shape, shards
    ):
        engine = ProPolyneEngine(
            np.zeros(shape), max_degree=1, block_size=7,
            storage=StorageSpec(shards=shards),
        )
        store = engine.store
        allocation = store.allocation
        codes = np.arange(allocation.n_codes)
        want = [place(allocation.block_tuple(c), shards) for c in codes]
        assert store.shard_of(codes).tolist() == want
        # The tuples are the grid's unravel, so placement is the one the
        # tuple-keyed store used; and each block sits on its shard.
        grid = np.unravel_index(
            codes, [len(axis.block_counts) for axis in allocation.axes]
        )
        assert [allocation.block_tuple(c) for c in codes] == list(
            zip(*(axis.tolist() for axis in grid))
        )
        for shard, device in enumerate(store._built.sharded.devices):
            assert sorted(device.block_ids()) == [
                c for c, s in enumerate(want) if s == shard
            ]
        store.close()


class TestShardedDevice:
    def test_reads_and_bulk_reads_round_trip(self):
        dev = build_sharded(3)
        blocks = {b: vals(float(b) * 1.5) for b in range(24)}
        for b, items in blocks.items():
            write_block(dev, b, items)
        for b, items in blocks.items():
            assert read_block(dev, b).tolist() == items.tolist()
        assert listed(read_map(dev, list(blocks))) == listed(blocks)
        assert dev.n_blocks() == 24
        assert len(dev) == 24

    def test_sequential_fanout_matches_concurrent(self):
        ids = list(range(24))
        blocks = {b: vals(float(b)) for b in ids}
        wide, narrow = build_sharded(4), build_sharded(4, fanout_workers=1)
        for b, items in blocks.items():
            write_block(wide, b, items)
            write_block(narrow, b, items)
        assert listed(read_map(wide, ids)) == listed(
            read_map(narrow, ids)
        ) == listed(blocks)

    def test_io_totals_sum_across_shards(self):
        dev = build_sharded(4)
        for b in range(16):
            write_block(dev, b, vals(0.0))
        dev.read_many(list(range(16)))
        totals = dev.io_totals()
        assert totals.reads == 16
        assert totals.writes == 16
        per_shard = [d.io.reads for d in dev.devices]
        assert sum(per_shard) == 16

    def test_stats_aggregate_per_shard(self):
        dev = build_sharded(2)
        write_block(dev, 0, vals(1.0))
        stats = dev.stats()
        assert stats["layer"] == "sharded"
        assert stats["shards"] == 2
        assert len(stats["per_shard"]) == 2

    def test_validation(self):
        with pytest.raises(StorageError):
            ShardedDevice([], codes_table(1))
        with pytest.raises(StorageError):
            ShardedDevice([SimulatedDisk(block_size=4),
                           SimulatedDisk(block_size=8)], codes_table(2))
        with pytest.raises(StorageError):
            build_sharded(2, fanout_workers=0)
        for bad in ([0, 2], [-1, 0], [[0, 1]]):
            with pytest.raises(StorageError, match="placement table"):
                ShardedDevice(
                    [SimulatedDisk(block_size=4) for _ in range(2)], bad
                )
        with pytest.raises(StorageError, match="placement table"):
            StorageSpec(shards=2).build(block_size=4)


class _OkShard:
    """Minimal read-only shard double."""

    block_size = 8

    def read_many(self, codes):
        return BlockGroup(
            codes, [vals(1.0) for _ in codes], np.ones(len(codes), np.intp)
        )


class _FailingShard:
    block_size = 8

    def __init__(self, label):
        self.label = label

    def read_many(self, codes):
        raise StorageError(f"{self.label} is down")


class TestFanoutPoolLifecycle:
    def test_pool_persists_across_read_many_calls(self):
        # Regression: read_many used to build (and tear down) a fresh
        # ThreadPoolExecutor on every call — the hottest I/O path paid
        # thread startup each time.  The pool must now be created once
        # and reused.
        dev = build_sharded(4)
        for b in range(16):
            write_block(dev, b, vals(0.0))
        dev.read_many(list(range(16)))
        pool = dev._pool
        assert pool is not None
        dev.read_many(list(range(16)))
        assert dev._pool is pool

    def test_close_shuts_the_pool_down_idempotently(self):
        dev = build_sharded(4)
        for b in range(8):
            write_block(dev, b, vals(0.0))
        dev.read_many(list(range(8)))
        dev.close()
        assert dev._pool is None
        dev.close()  # second close is a no-op
        # The device still works afterwards; the pool is rebuilt lazily.
        assert listed(read_map(dev, list(range(8)))) == {
            b: [0.0] for b in range(8)
        }


    def test_a_spec_with_nothing_to_wait_for_builds_no_pool(self):
        # Fan-out overlaps device waits; a stack with no latency model,
        # fault plan or retry policy has none, so its shard groups run
        # on the calling thread.
        from repro.storage.latency import LatencyModel

        def workers(**spec):
            built = StorageSpec(shards=4, **spec).build(8, codes_table(4))
            try:
                return built.sharded.fanout_workers
            finally:
                built.close()

        assert workers() == 1
        assert workers(cache_blocks=16, crc=True) == 1
        assert workers(latency=LatencyModel(base_s=0.001)) == 4
        assert workers(fault_plan=FaultPlan(seed=1, read_error_rate=0.1)) == 4
        assert workers(retry_policy=RetryPolicy(max_attempts=2)) == 4
        engine = ProPolyneEngine(
            np.ones((16, 16)), max_degree=1, block_size=7,
            storage=StorageSpec(shards=4),
        )
        engine.evaluate_exact(RangeSumQuery.count([(1, 14), (2, 13)]))
        assert engine.store._built.sharded._pool is None
        engine.store.close()


class TestMultiShardFailureAggregation:
    def test_second_failed_shard_lands_in_notes(self):
        # Regression: read_many used to surface only the first failed
        # shard group, silently reporting a multi-shard outage as a
        # single-shard one.  Placement (pinned above): block 0 -> shard
        # 1, block 1 -> shard 3, block 42 -> shard 0.
        dev = ShardedDevice(
            [_OkShard(), _FailingShard("shard-one"),
             _OkShard(), _FailingShard("shard-three")], codes_table(4),
        )
        with pytest.raises(StorageError) as excinfo:
            dev.read_many([0, 1, 42])
        assert "shard-one is down" in str(excinfo.value)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any(
            "shard 3" in note and "shard-three is down" in note
            for note in notes
        )

    def test_single_failed_shard_has_no_notes(self):
        dev = ShardedDevice(
            [_OkShard(), _FailingShard("shard-one"), _OkShard(), _OkShard()],
            codes_table(4),
        )
        with pytest.raises(StorageError) as excinfo:
            dev.read_many([0, 1, 42])
        assert getattr(excinfo.value, "__notes__", []) == []

    def test_surviving_shards_are_not_interrupted(self):
        # The failure is raised only after every group settles: the OK
        # shards' reads complete (observable via a recording double).
        calls = []

        class _Recording(_OkShard):
            def read_many(self, codes):
                calls.append(codes.tolist())
                return super().read_many(codes)

        dev = ShardedDevice(
            [_Recording(), _FailingShard("shard-one"),
             _Recording(), _Recording()], codes_table(4),
        )
        with pytest.raises(StorageError):
            dev.read_many([0, 1, 42])
        assert [42] in calls  # shard 0's group ran to completion


class TestShardedQueriesAreBitwiseEqual:
    def make_engine(self, shards):
        rng = np.random.default_rng(2003)
        cube = rng.poisson(3.0, (32, 32)).astype(float)
        return ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(shards=shards, cache_blocks=8),
        )

    def test_exact_answers_identical_for_1_2_4_shards(self):
        queries = [
            RangeSumQuery.count([(3, 29), (4, 30)]),
            RangeSumQuery.weighted([(0, 31), (8, 23)], {0: 1}),
            RangeSumQuery.weighted([(5, 20), (5, 20)], {0: 1, 1: 1}),
        ]
        engines = {n: self.make_engine(n) for n in (1, 2, 4)}
        for query in queries:
            answers = {n: e.evaluate_exact(query)
                       for n, e in engines.items()}
            # Bitwise equality, not approx: sharding must not change
            # the arithmetic, only where the blocks live.
            assert answers[1] == answers[2] == answers[4]


class TestPerShardDegradation:
    QUERY = RangeSumQuery.count([(2, 28), (3, 29)])

    @staticmethod
    def cube():
        return np.random.default_rng(7).poisson(3.0, (32, 32)).astype(float)

    def dead_shard(self):
        """The shard owning the most of the query's blocks, under the
        stormy engine's four-shard placement: it must own some of them
        (or nothing degrades) and not all (or no survivor answers)."""
        engine = ProPolyneEngine(
            self.cube(), max_degree=1, block_size=7,
            storage=StorageSpec(shards=4),
        )
        codes = engine.store.allocation.distinct(
            engine.query_located(self.QUERY)[1]
        )
        owned = np.bincount(engine.store.shard_of(codes), minlength=4)
        assert 0 < owned.max() < codes.size
        return int(owned.argmax())

    def make_stormy(self, dead, recovery_timeout_s=60.0):
        return ProPolyneEngine(
            self.cube(), max_degree=1, block_size=7,
            storage=StorageSpec(
                shards=4,
                fault_plan=FaultPlan(seed=3, read_error_rate=1.0),
                fault_shards=(dead,),
                retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                         budget_s=0.0),
                breaker=CircuitBreaker(failure_threshold=1,
                                       recovery_timeout_s=recovery_timeout_s),
            ),
        )

    def test_one_dead_shard_trips_only_its_breaker(self):
        dead = self.dead_shard()
        engine = self.make_stormy(dead)
        outcome = engine.evaluate_degradable(self.QUERY)
        assert outcome.degraded is True
        assert outcome.reason == "storage_unavailable"
        assert outcome.blocks_skipped > 0
        assert outcome.blocks_read > 0  # survivors answered
        states = [b.state for b in engine.store.breakers]
        assert states[dead] == "open"
        assert all(s == "closed" for i, s in enumerate(states) if i != dead)
        # The survivors' answer stays inside the guaranteed bound.
        clean = ProPolyneEngine(self.cube(), max_degree=1, block_size=7)
        truth = clean.evaluate_exact(self.QUERY)
        assert abs(outcome.value - truth) <= outcome.error_bound + 1e-9

    def test_no_unhandled_exceptions_across_repeated_queries(self):
        engine = self.make_stormy(self.dead_shard())
        for _ in range(5):
            outcome = engine.evaluate_degradable(self.QUERY)
            assert outcome.degraded is True

    def test_healing_restores_exact_answers(self, sim_clock):
        engine = self.make_stormy(self.dead_shard(), recovery_timeout_s=0.01)
        assert engine.evaluate_degradable(self.QUERY).degraded is True
        engine.store.set_injecting(False)
        sim_clock.sleep(0.005)  # half the recovery timeout: still open
        assert engine.evaluate_degradable(self.QUERY).degraded is True
        sim_clock.sleep(0.005)  # the recovery timeout: probes allowed
        healed = engine.evaluate_degradable(self.QUERY)
        assert healed.degraded is False
        assert healed.blocks_skipped == 0


class TestShardAwareScanStats:
    def test_disk_layers_count_served_reads_per_shard(self):
        from repro.query.service import QueryService

        rng = np.random.default_rng(11)
        cube = rng.poisson(3.0, (32, 32)).astype(float)
        engine = ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(shards=4, cache_blocks=8),
        )

        def shard_reads():
            sharded = engine.store.storage_stats()["inner"]["inner"]
            return [disk["reads"] for disk in sharded["per_shard"]]

        before = shard_reads()
        queries = [RangeSumQuery.count([(2, 28), (3, 29)]),
                   RangeSumQuery.count([(0, 15), (0, 15)])]
        with QueryService(engine, workers=2) as service:
            service.run_exact(queries)
            stats = service.scan_stats()
        by_shard = [now - was for now, was in zip(shard_reads(), before)]
        # Every read the cache issued lands on exactly one shard's disk.
        assert sum(by_shard) == stats["fetches"] > 0
        assert len(by_shard) == 4 and sum(n > 0 for n in by_shard) > 1
