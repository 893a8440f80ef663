"""Tests for the vectorized batch append kernel (``BatchInserter``).

The headline contract: after ``insert_batch(points, weights)`` the
stored coefficients are **bitwise-identical** (``==`` on floats, no
tolerance) to the state N sequential ``insert`` calls in the same order
leave behind — for single points, exact duplicates, per-point weights,
and negative (deletion) weights — while the batch path performs one
coalesced read and one group-commit write per touched-block union
instead of one read-modify-write per (point, block) pair.
"""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.obs import MetricsRegistry, use_registry
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery

RNG = np.random.default_rng(211)


def _fresh(shape=(16, 16), **kwargs):
    cube = np.abs(RNG.normal(size=shape))
    return ProPolyneEngine(cube, max_degree=1, block_size=7, **kwargs)


def _coefficients(engine):
    """Every stored coefficient, block by block (exact floats)."""
    out = {}
    for block_id in sorted(engine._block_norms):
        out[block_id] = engine.store.fetch_block(block_id)
    return out


def _assert_bitwise_equal(a, b):
    assert a.keys() == b.keys()
    for block_id in a:
        # tolist() compares exact floats, slot by slot.
        assert a[block_id].tolist() == b[block_id].tolist(), block_id


def _pair(shape=(16, 16)):
    cube = np.abs(RNG.normal(size=shape))
    build = lambda: ProPolyneEngine(cube, max_degree=1, block_size=7)
    return build(), build()


class TestBitwiseIdentity:
    def _check(self, points, weights):
        sequential, batched = _pair()
        ws = (
            [1.0] * len(points)
            if weights is None
            else list(weights)
        )
        for point, weight in zip(points, ws):
            sequential.insert(point, weight)
        BatchInserter(batched).insert_batch(points, weights)
        _assert_bitwise_equal(
            _coefficients(sequential), _coefficients(batched)
        )
        assert sequential._block_norms == batched._block_norms
        assert sequential.store._norm == batched.store._norm

    def test_single_point(self):
        self._check([(5, 11)], None)

    def test_duplicate_points(self):
        self._check([(3, 3), (3, 3), (3, 3)], None)

    def test_weighted_points(self):
        points = [tuple(map(int, RNG.integers(0, 16, 2))) for _ in range(40)]
        self._check(points, list(RNG.normal(size=40)))

    def test_negative_weight_deletions(self):
        self._check([(2, 9), (2, 9), (14, 1)], [1.0, -1.0, -2.5])

    def test_large_mixed_batch_with_duplicates(self):
        points = [tuple(map(int, RNG.integers(0, 16, 2))) for _ in range(96)]
        points += points[:17]
        self._check(points, list(RNG.normal(size=len(points))))


class TestSemantics:
    def test_insert_matches_incremental_cube(self):
        cube = np.abs(RNG.normal(size=(16, 16)))
        engine = ProPolyneEngine(cube, max_degree=1, block_size=7)
        BatchInserter(engine).insert_batch(
            [(5, 4), (5, 4), (12, 0)], [1.0, 1.0, 3.0]
        )
        cube2 = cube.copy()
        cube2[5, 4] += 2.0
        cube2[12, 0] += 3.0
        rebuilt = ProPolyneEngine(cube2, max_degree=1, block_size=7)
        for query in (
            RangeSumQuery.count([(0, 15), (0, 15)]),
            RangeSumQuery.count([(5, 5), (4, 4)]),
            RangeSumQuery.count([(10, 15), (0, 3)]),
        ):
            assert engine.evaluate_exact(query) == pytest.approx(
                rebuilt.evaluate_exact(query)
            )

    def test_returns_distinct_touched_coefficients(self):
        sequential, batched = _pair()
        one = sequential.insert((7, 7))
        assert one > 0
        assert BatchInserter(batched).insert_batch([(7, 7)]) == one
        # Duplicates share their whole support: same count as one point.
        fresh_engine = _fresh()
        assert BatchInserter(fresh_engine).insert_batch(
            [(7, 7), (7, 7)]
        ) == one

    def test_empty_batch_is_a_no_op(self):
        engine = _fresh()
        before = engine.store.io_snapshot()
        assert BatchInserter(engine).insert_batch([]) == 0
        assert engine.store.io_since(before).writes == 0

    def test_scalar_and_broadcast_weights(self):
        a, b = _pair()
        BatchInserter(a).insert_batch([(1, 1), (2, 2)], 2.5)
        BatchInserter(b).insert_batch([(1, 1), (2, 2)], [2.5, 2.5])
        _assert_bitwise_equal(_coefficients(a), _coefficients(b))

    def test_one_group_commit_per_batch(self):
        engine = _fresh()
        inserter = BatchInserter(engine)
        points = [tuple(map(int, RNG.integers(0, 16, 2))) for _ in range(32)]
        with use_registry(MetricsRegistry()) as reg:
            inserter.insert_batch(points)
            assert (
                reg.histogram("storage.blocks_per_write_batch").count == 1
            )
            assert reg.counter("query.insert.batches").value == 1
            assert reg.counter("query.inserts").value == len(points)
            assert reg.histogram("query.insert.batch_size").count == 1
            assert reg.histogram("query.insert.blocks_touched").count == 1


class TestValidation:
    def test_wrong_arity_rejected(self):
        engine = _fresh()
        with pytest.raises(QueryError):
            BatchInserter(engine).insert_batch([(1,)])

    def test_out_of_domain_rejected(self):
        engine = _fresh()
        inserter = BatchInserter(engine)
        with pytest.raises(QueryError):
            inserter.insert_batch([(0, 16)])
        with pytest.raises(QueryError):
            inserter.insert_batch([(-1, 0)])

    def test_weight_count_mismatch_rejected(self):
        engine = _fresh()
        with pytest.raises(QueryError):
            BatchInserter(engine).insert_batch([(1, 1), (2, 2)], [1.0])

    def test_failed_validation_leaves_store_untouched(self):
        engine = _fresh()
        before = _coefficients(engine)
        with pytest.raises(QueryError):
            BatchInserter(engine).insert_batch([(1, 1), (99, 0)])
        _assert_bitwise_equal(before, _coefficients(engine))


class TestScalarInsertRoute:
    def test_engine_insert_reuses_one_inserter(self):
        engine = _fresh()
        assert engine._inserter is None
        engine.insert((3, 3))
        first = engine._inserter
        assert isinstance(first, BatchInserter)
        engine.insert((4, 4))
        assert engine._inserter is first

    def test_concurrent_inserts_do_not_lose_updates(self):
        import threading

        cube = np.zeros((16, 16))
        engine = ProPolyneEngine(cube, max_degree=1, block_size=7)
        n_threads, per_thread = 8, 25

        def hammer():
            for _ in range(per_thread):
                engine.insert((5, 5))

        threads = [
            threading.Thread(target=hammer) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = engine.evaluate_exact(
            RangeSumQuery.count([(5, 5), (5, 5)])
        )
        assert total == pytest.approx(n_threads * per_thread)
