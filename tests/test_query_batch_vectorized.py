"""Batch-path equivalence: the vectorized, coalesced batch executor.

The acceptance bar for PR 6's batch path is *bitwise* identity, not
approximate agreement: the CSR stack + single gather + per-segment
``np.dot`` must reduce each query in exactly the order the engine's
scalar kernel (:func:`repro.query.propolyne.sparse_inner_product`) does,
whatever the batch shape — group-by cells, drill-downs, overlapping
ranges, a single query — and whatever storage sits underneath (plain,
sharded, fault-injected).  Degraded batches must carry per-query
guaranteed error bounds.
"""

import math
import threading

import numpy as np
import pytest

from repro.core.errors import QueryError, StorageError, StorageUnavailable
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.query.batch import BatchEvaluator, group_by
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import (
    QueryService,
    ScanCoordinator,
    _Flight,
    shared_scan_view,
)
from repro.storage.device import StorageSpec
from repro.storage.scheduler import schedule_blocks
from tests._blocks import read_map


@pytest.fixture(scope="module")
def cube():
    rng = np.random.default_rng(2003)
    return rng.poisson(3.0, (32, 32)).astype(float)


@pytest.fixture(scope="module")
def engine(cube):
    return ProPolyneEngine(cube, max_degree=1, block_size=7)


OVERLAPPING = [
    RangeSumQuery.count([(0, 15), (0, 15)]),
    RangeSumQuery.count([(4, 19), (4, 19)]),
    RangeSumQuery.count([(8, 23), (8, 23)]),
    RangeSumQuery.count([(8, 23), (4, 19)]),
]

DRILL_DOWN = [
    RangeSumQuery.count([(0, 31), (0, 31)]),
    RangeSumQuery.count([(0, 15), (0, 31)]),
    RangeSumQuery.count([(0, 7), (0, 31)]),
    RangeSumQuery.count([(0, 7), (0, 15)]),
]


class TestBitwiseEquivalence:
    def test_weighted_queries_bitwise_equal(self, engine):
        queries = [
            RangeSumQuery.weighted([(3, 29), (4, 30)], {0: 1}),
            RangeSumQuery.weighted([(5, 20), (5, 20)], {0: 1, 1: 1}),
            RangeSumQuery.count([(5, 20), (5, 20)]),
        ]
        values = BatchEvaluator(engine).evaluate_exact(queries)
        for value, query in zip(values, queries):
            assert value == engine.evaluate_exact(query)

    def test_single_query_batch_bitwise_equal(self, engine):
        query = RangeSumQuery.count([(3, 19), (8, 27)])
        assert BatchEvaluator(engine).evaluate_exact(
            [query]
        )[0] == engine.evaluate_exact(query)

    def test_empty_batch_raises(self, engine):
        with pytest.raises(QueryError):
            BatchEvaluator(engine).evaluate_exact([])
        with pytest.raises(QueryError):
            BatchEvaluator(engine).evaluate_degradable([])

    def test_group_by_cells_bitwise_equal(self, engine):
        result = group_by(
            engine, dim=0, group_width=8, other_ranges={1: (4, 27)}
        )
        for (lo, hi), value in result.as_dict().items():
            cell = RangeSumQuery.count([(lo, hi), (4, 27)])
            assert value == engine.evaluate_exact(cell)


class TestCoalescedIO:
    def test_batch_reads_each_block_exactly_once(self, cube):
        # Uncached sharded stack: the leaf read counter is the ground
        # truth for how many blocks the batch actually fetched.
        eng = ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(shards=4),
        )
        evaluator = BatchEvaluator(eng)
        shared = evaluator.shared_block_count(OVERLAPPING)
        before = eng.store.io_snapshot()
        evaluator.evaluate_exact(OVERLAPPING)
        assert eng.store.io_since(before).reads == shared
        assert shared < evaluator.independent_block_count(OVERLAPPING)

    def test_block_order_equals_the_sorted_dedup_reference(self, engine):
        evaluator = BatchEvaluator(engine)
        allocation = engine.store.allocation
        values, codes, _ = map(np.concatenate, zip(
            *(engine.query_located(query) for query in OVERLAPPING)
        ))
        # A block whose only entry squares to zero is still a block to
        # read: presence comes from the codes, not from the energy.  The
        # batch may read every block of the grid, so one of its blocks
        # is made lone: its entries are dropped, one of 1e-200 stands in.
        lone = int(codes[-1])
        keep = codes != lone
        lone_codes = np.append(codes[keep], lone)
        lone_values = np.append(values[keep], 1e-200)
        uniq, inverse = np.unique(lone_codes, return_inverse=True)
        energy = np.sqrt(
            np.bincount(inverse, weights=lone_values * lone_values)
        )
        assert energy[uniq == lone] == 0.0
        norms = [engine._block_norms.get(b, 0.0) for b in uniq.tolist()]
        best = np.argsort(-(energy * np.array(norms)), kind="stable")
        schedule = schedule_blocks(
            lone_values, lone_codes, allocation, engine._block_norms
        )
        assert schedule.codes.tolist() == uniq[best].tolist()
        # The norm table is keyed by code, every block of the grid.
        assert set(engine._block_norms) == set(range(allocation.n_codes))
        assert lone in schedule.codes
        # ... and it is the schedule the evaluator fetches by.
        assert evaluator._schedule(OVERLAPPING)[-1].codes.tolist() == (
            schedule_blocks(
                values, codes, allocation, engine._block_norms
            ).codes.tolist()
        )


class TestDegradedBatch:
    def make_stormy(self, cube):
        return ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(
                shards=4,
                fault_plan=FaultPlan(seed=3, read_error_rate=1.0),
                fault_shards=(1,),
                retry_policy=RetryPolicy(
                    max_attempts=2, base_delay_s=0.0, budget_s=0.0
                ),
                breaker=CircuitBreaker(
                    failure_threshold=1, recovery_timeout_s=60.0
                ),
            ),
        )

    def test_fault_injected_shard_degrades_with_per_query_bounds(
        self, cube, engine
    ):
        stormy = self.make_stormy(cube)
        truths = [engine.evaluate_exact(q) for q in OVERLAPPING]
        outcomes = BatchEvaluator(stormy).evaluate_degradable(OVERLAPPING)
        assert len(outcomes) == len(OVERLAPPING)
        assert any(o.degraded for o in outcomes)
        for outcome, truth in zip(outcomes, truths):
            if outcome.degraded:
                assert outcome.reason == "storage_unavailable"
                assert outcome.blocks_skipped > 0
                assert math.isfinite(outcome.error_bound)
                assert outcome.error_bound > 0.0
                assert 0.0 <= outcome.error_estimate <= outcome.error_bound
                # The guaranteed bound really contains the truth.
                assert abs(outcome.value - truth) <= (
                    outcome.error_bound + 1e-9
                )
            else:
                assert outcome.value == truth  # bitwise

    def test_no_fault_degradable_batch_is_bitwise_exact(self, engine):
        outcomes = BatchEvaluator(engine).evaluate_degradable(OVERLAPPING)
        for outcome, query in zip(outcomes, OVERLAPPING):
            assert outcome.degraded is False
            assert outcome.error_bound == 0.0
            assert outcome.value == engine.evaluate_exact(query)


def progressive_bits(steps) -> list:
    """Each step's ``(estimate, bound)`` bits, then the name of the
    error that ended the evaluation, if one did."""
    bits = []
    try:
        for estimate, bound in steps:
            bits.append((estimate.hex(), bound.hex()))
    except StorageUnavailable as exc:
        bits.append(type(exc).__name__)
    return bits


def outcome_fields(outcome) -> tuple:
    return (
        outcome.value.hex(), outcome.error_bound.hex(),
        outcome.error_estimate.hex(), outcome.blocks_read,
        outcome.blocks_skipped, outcome.reason,
    )


class TestBatchOfOneIsTheEngine:
    """The engine's progressive and degradable evaluations are batches of
    one through the batch evaluator's fold: step for step and field for
    field the same bits, on healthy and on faulty storage."""

    QUERIES = OVERLAPPING + DRILL_DOWN + [
        RangeSumQuery.weighted([(3, 29), (4, 30)], {0: 1}),
    ]

    @staticmethod
    def build(cube, stack):
        if stack == "dead_shard":
            return TestDegradedBatch().make_stormy(cube)
        storage = None
        if stack == "fault_plan":
            storage = StorageSpec(
                shards=2, crc=True,
                fault_plan=FaultPlan(
                    seed=11, read_error_rate=0.2, torn_rate=0.1
                ),
                retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            )
        return ProPolyneEngine(cube, max_degree=1, block_size=7, storage=storage)

    @pytest.mark.parametrize("stack", ["healthy", "dead_shard", "fault_plan"])
    def test_a_batch_of_one_is_the_engine_bit_for_bit(self, cube, stack):
        # Two identical stacks driven through the same reads in the same
        # order, so their fault draws and breaker states stay in step.
        engine, twin = self.build(cube, stack), self.build(cube, stack)
        batch = BatchEvaluator(twin)
        degraded = 0
        for query in self.QUERIES:
            assert progressive_bits(
                (s.estimates[0], s.error_bounds[0])
                for s in batch.evaluate_progressive([query])
            ) == progressive_bits(
                (s.estimate, s.error_bound)
                for s in engine.evaluate_progressive(query)
            )
            (outcome,) = batch.evaluate_degradable([query])
            assert outcome_fields(outcome) == outcome_fields(
                engine.evaluate_degradable(query)
            )
            degraded += outcome.degraded
        assert (degraded > 0) == (stack != "healthy")


class TestServiceBatch:
    def test_submit_batch_thread_mode_bitwise_equal(self, engine):
        expected = [engine.evaluate_exact(q) for q in OVERLAPPING]
        with QueryService(engine, workers=2) as service:
            answers = service.submit_batch(OVERLAPPING, block=True).result()
        assert answers == expected

    def test_batch_and_exact_tasks_interleave(self, engine):
        single = RangeSumQuery.count([(3, 19), (8, 27)])
        with QueryService(engine, workers=2, queue_depth=8) as service:
            batch_future = service.submit_batch(DRILL_DOWN, block=True)
            exact_future = service.submit_exact(single, block=True)
            assert batch_future.result() == [
                engine.evaluate_exact(q) for q in DRILL_DOWN
            ]
            assert exact_future.result() == engine.evaluate_exact(single)


class TestScanCoordinatorBulkFetch:
    def test_bulk_fetch_dedups_ids_within_one_call(self, engine):
        view = shared_scan_view(engine)
        coordinator = view.store.coordinator
        blocks = list(engine.store.device.block_ids())[:3]
        out = coordinator.read_many(blocks + blocks)
        assert sorted(out.codes.tolist()) == sorted(blocks)
        assert coordinator.fetches == len(blocks)
        assert sum(coordinator.fetches_by_shard.values()) == len(blocks)

    def test_bulk_fetch_joins_an_inflight_read(self, engine):
        view = shared_scan_view(engine)
        coordinator = view.store.coordinator
        blocks = list(engine.store.device.block_ids())[:2]
        target = blocks[0]
        shard = int(coordinator._shard_of(np.array([target]))[0])
        key = (coordinator.namespace, shard, target)
        sentinel = np.array([42.0])
        flight = _Flight()
        flight.result = (sentinel, 1)
        flight.event = threading.Event()  # as a first waiter leaves it
        flight.event.set()
        coordinator._inflight[key] = flight
        try:
            out = read_map(coordinator, blocks)
        finally:
            coordinator._inflight.pop(key, None)
        # The in-flight block was shared, not re-read; the other block
        # was fetched from the store.
        assert out[target] is sentinel
        assert coordinator.shared == 1
        assert coordinator.fetches == len(blocks) - 1

    def test_concurrent_batches_share_flights_consistently(self, cube):
        eng = ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(shards=2),
        )
        view = shared_scan_view(eng)
        coordinator = view.store.coordinator
        blocks = list(eng.store.device.block_ids())
        expected = {b: eng.store.fetch_block(b) for b in blocks}
        results, errors = [], []
        barrier = threading.Barrier(3)

        def fetch_all():
            barrier.wait()
            try:
                results.append(read_map(coordinator, blocks))
            except StorageError as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=fetch_all) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 3
        for out in results:
            assert out == expected
