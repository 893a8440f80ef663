"""Tests for the vectorized batch append kernel (``BatchInserter``).

The headline contract: after ``insert_batch(points, weights)`` the
stored coefficients are **bitwise-identical** (``==`` on floats, no
tolerance) to the state N sequential ``insert`` calls in the same order
leave behind (the oracle's ``insert_batch`` and ``insert_each`` write
runners, ``tests/test_storage_block_codes.py``) — while the batch path
performs one coalesced read and one group-commit write per
touched-block union instead of one read-modify-write per (point,
block) pair.

The kernel places each point's delta once in the allocation's fixed
coefficient layout (a bounded LRU memo, one per engine) and accumulates
straight into a scratch of that layout with no coefficient dedup;
``TestSortFreeKernel`` pins that against sequential inserts over
generated cubes, ``TestDeltaMemo`` the memo's bound and sharing, and
``TestScratch`` that a failed commit leaves nothing behind in it.  (A
short payload raising ``StorageError`` with the store untouched is
``test_storage_array_payloads.TestWrongLengthPayload``.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.ingest as ingest_module
from repro.core.errors import QueryError, StorageError
from repro.obs import MetricsRegistry, use_registry
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.streams.ingest import IngestService

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


class TestSemantics:

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

    def test_zero_weight_insert_keeps_every_norm_bitwise(self):
        # Population and the inserter take a block's norm, and the data
        # norm from the block norms, by one formula: a block rewritten
        # with its own values keeps its bits.
        cube = np.random.default_rng(5).poisson(3.0, size=(32, 32, 16))
        engine = ProPolyneEngine(cube.astype(float), max_degree=2, block_size=7)
        norms = dict(engine._block_norms)
        data_norm = engine.store.data_norm
        engine.insert((5, 7, 3), 0.0)
        engine.inserter.insert_batch([(0, 0, 0), (31, 31, 15)], [0.0, 0.0])
        assert engine._block_norms == norms
        assert engine.store.data_norm == data_norm

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

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"),
                                        -float("inf")])
    def test_non_finite_weight_rejected_and_store_untouched(self, weight):
        # Stored, a NaN would reach every coefficient its impulse touches:
        # COUNT over a region without (1, 1) read nan.
        engine = ProPolyneEngine(np.ones((8, 8)), max_degree=1, block_size=7)
        before = _coefficients(engine)
        with pytest.raises(QueryError, match="not finite"):
            engine.insert((1, 1), weight)
        with pytest.raises(QueryError, match="not finite"):
            engine.inserter.insert_batch([(6, 6), (1, 1)], [1.0, weight])
        with pytest.raises(QueryError, match="not finite"):
            engine.inserter.commit([(6, 6), (1, 1)], weight)
        _assert_bitwise_equal(before, _coefficients(engine))
        assert engine.evaluate_exact(
            RangeSumQuery.count([(4, 7), (4, 7)])
        ) == pytest.approx(16.0)


# Corners and edges of a 2-D and a 3-D cube.  No impulse here loses an
# entry to the exact-zero mask: no axis translation of a width-one range
# holds an exact 0.0 (searched over degrees 0-3 and axis lengths 4-39 and
# 64), so every count below is the full outer product.
_EDGE_POINTS = [
    ((16, 16), point) for point in
    [(0, 0), (0, 15), (15, 0), (15, 15), (0, 7), (7, 15), (15, 8), (8, 0)]
] + [
    ((16, 12, 8), point) for point in
    [(0, 0, 0), (15, 11, 7), (0, 11, 0), (15, 0, 7), (8, 0, 0), (0, 6, 7),
     (15, 11, 3)]
]


@pytest.mark.parametrize("shape, point", _EDGE_POINTS)
def test_single_point_insert_counts_what_insert_batch_counts(shape, point):
    # insert returns its point's delta length; insert_batch counts the
    # batch's union: for one point they are the same number.
    cube = np.abs(np.random.default_rng(len(shape)).normal(size=shape))
    build = lambda: ProPolyneEngine(cube, max_degree=1, block_size=7)
    engine, twin = build(), build()
    count = engine.insert(point, 2.5)
    assert count > 0
    assert count == BatchInserter(twin).insert_batch([point], [2.5])
    _assert_bitwise_equal(_coefficients(engine), _coefficients(twin))


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


def _support(engine, points):
    """Distinct coefficient keys the points' impulse transforms touch."""
    keys = set()
    for point in points:
        impulse = RangeSumQuery(ranges=tuple((p, p) for p in point))
        keys.update(map(tuple, engine.query_arrays(impulse)[0].tolist()))
    return keys


# Size 2 is an axis too small for the db2 cascade (standard basis);
# an engine needs one axis that is not.
_shapes = st.lists(
    st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=3
).map(tuple).filter(lambda shape: max(shape) > 2)
# 1/3 and 0.1 round on every product; w and -w cancel a coefficient of
# an empty cube to exactly 0.0; 0.0 touches without changing.
_weights = st.sampled_from([1.0, -1.0, 0.0, 2.5, -2.5, 1 / 3, -1 / 3, 0.1])


class TestSortFreeKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=_shapes,
        block_size=st.sampled_from([2, 3, 7, 15]),
        shards=st.sampled_from([None, 2, 3]),
        empty=st.booleans(),
        data=st.data(),
    )
    def test_bitwise_equal_to_sequential_inserts(
        self, shape, block_size, shards, empty, data
    ):
        size = int(np.prod(shape))
        cube = (
            np.zeros(shape) if empty
            else (np.arange(size, dtype=float).reshape(shape) % 7) / 3
        )
        storage = None if shards is None else StorageSpec(shards=shards)
        sequential, batched = (
            ProPolyneEngine(
                cube, max_degree=1, block_size=block_size, storage=storage
            )
            for _ in range(2)
        )
        # A small pool of cells: duplicates inside the batch and
        # supports that share blocks are the common case.
        pool = data.draw(st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in shape)),
            min_size=1, max_size=4,
        ))
        points = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=12)
        )
        weights = [data.draw(_weights) for _ in points]
        try:
            for point, weight in zip(points, weights):
                sequential.insert(point, weight)
            touched = batched.inserter.insert_batch(points, weights)
            assert touched == len(_support(batched, points))
            assert (
                batched.to_coefficients().tobytes()
                == sequential.to_coefficients().tobytes()
            )
            assert batched._block_norms == sequential._block_norms
            assert batched.store.data_norm == sequential.store.data_norm
        finally:
            sequential.store.close()
            batched.store.close()

    def test_weights_that_cancel_leave_exact_zeros(self):
        engine = ProPolyneEngine(np.zeros((16, 8)), max_degree=1, block_size=3)
        touched = engine.inserter.insert_batch(
            [(5, 3), (5, 3)], [1 / 3, -1 / 3]
        )
        assert touched == len(_support(engine, [(5, 3)]))
        assert engine.to_coefficients().tobytes() == bytes(16 * 8 * 8)
        assert set(engine._block_norms.values()) == {0.0}
        assert engine.store.data_norm == 0.0

    def test_versioned_commits_match_sequential_history(self):
        cube = np.arange(256, dtype=float).reshape(16, 16) % 5
        sequential, batched = (
            ProPolyneEngine(
                cube, max_degree=1, block_size=4,
                storage=StorageSpec(shards=2),
            )
            for _ in range(2)
        )
        sequential.enable_versioning()
        log = batched.enable_versioning()
        rng = np.random.default_rng(17)
        queries = [
            RangeSumQuery.count([(2, 11), (3, 14)]),
            RangeSumQuery.count([(0, 15), (0, 15)]),
        ]
        epochs = [0]
        try:
            for _ in range(4):
                points = [tuple(p) for p in rng.integers(0, 6, size=(20, 2))]
                weights = rng.normal(size=20).tolist()
                store = batched.store
                held = {
                    b: store.fetch_block(b) for b in store.device.block_ids()
                }
                batched.inserter.insert_batch(points, weights)
                preimages = log._records[-1].preimages
                assert preimages
                for block_id, preimage in preimages.items():
                    assert preimage is held[block_id]
                for point, weight in zip(points, weights):
                    sequential.insert(point, weight)
                epochs.append(sequential.epoch)
            for epoch, then in enumerate(epochs):
                for query in queries:
                    assert batched.evaluate_exact(
                        query, as_of=epoch
                    ) == sequential.evaluate_exact(query, as_of=then)
                assert (
                    batched.as_of_view(epoch)._block_norms
                    == sequential.as_of_view(then)._block_norms
                )
        finally:
            sequential.store.close()
            batched.store.close()


class TestDeltaMemo:
    POINTS = [(1, 2), (9, 9), (1, 2), (14, 3), (9, 9), (6, 6)]
    WEIGHTS = [1.0, 1 / 3, -2.0, 0.1, 1.0, 5.0]

    def test_eviction_changes_no_stored_bit(self, monkeypatch):
        roomy, cramped = _pair()
        for _ in range(2):
            roomy.inserter.insert_batch(self.POINTS, self.WEIGHTS)
        assert len(roomy.inserter._delta_memo) == 4
        # Room for one coefficient: every miss evicts all that is held.
        monkeypatch.setattr(ingest_module, "_MEMO_COEFFICIENTS", 1)
        for _ in range(2):
            cramped.inserter.insert_batch(self.POINTS, self.WEIGHTS)
        assert not cramped.inserter._delta_memo
        assert cramped.inserter._memo_held == 0
        _assert_bitwise_equal(_coefficients(roomy), _coefficients(cramped))
        assert roomy._block_norms == cramped._block_norms
        assert roomy.store.data_norm == cramped.store.data_norm

    def test_least_recently_used_point_goes_first(self, monkeypatch):
        inserter = _fresh().inserter
        a, b, c = (4, 4), (5, 5), (6, 6)
        sizes = {p: len(inserter._delta_of(p)[1]) for p in (a, b, c)}
        inserter._delta_memo.clear()
        inserter._memo_held = 0
        monkeypatch.setattr(
            ingest_module, "_MEMO_COEFFICIENTS",
            max(sizes[a] + sizes[b], sizes[a] + sizes[c]),
        )
        for point in (a, b, a, c):
            inserter.insert_batch([point])
        assert list(inserter._delta_memo) == [a, c]
        assert inserter._memo_held == sizes[a] + sizes[c]

    def test_service_replay_and_scalar_insert_share_one_memo(self):
        engine = _fresh()
        with IngestService(engine, commit_batch=4) as service:
            service.submit((3, 3))
            service.flush()
        memo = engine.inserter._delta_memo
        assert list(memo) == [(3, 3)]
        delta = memo[(3, 3)]
        engine.insert((3, 3))
        engine.insert((8, 1))
        assert list(memo) == [(3, 3), (8, 1)]
        assert memo[(3, 3)] is delta


class TestScratch:
    def test_failed_commit_then_good_commit_is_the_good_commit_alone(
        self, monkeypatch
    ):
        # The failed batch shares blocks with the good one and reaches
        # others it does not: a stale scratch range would show in both.
        failed = [(3, 3), (12, 5), (3, 4), (0, 15)]
        good = [(3, 4), (7, 7), (3, 4)]
        weights = [1.0, -2.5, 1 / 3]
        spec = StorageSpec(shards=2)
        cube = np.abs(RNG.normal(size=(16, 16)))
        faulted, clean = (
            ProPolyneEngine(cube, max_degree=1, block_size=7, storage=spec)
            for _ in range(2)
        )

        def write_fault(codes, payloads):
            raise StorageError("injected write fault")

        try:
            monkeypatch.setattr(faulted.store.device, "write_many", write_fault)
            with pytest.raises(StorageError):
                faulted.inserter.insert_batch(failed, [1e6] * len(failed))
            monkeypatch.undo()
            assert faulted.inserter.insert_batch(
                good, weights
            ) == clean.inserter.insert_batch(good, weights)
            assert (
                faulted.to_coefficients().tobytes()
                == clean.to_coefficients().tobytes()
            )
            assert faulted._block_norms == clean._block_norms
            assert faulted.store.data_norm == clean.store.data_norm
        finally:
            faulted.store.close()
            clean.store.close()
