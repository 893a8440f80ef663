"""Tests for ProPolyne's incremental append path (§3.1.1 reason 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec


RNG = np.random.default_rng(131)


class TestInsert:
    def _fresh(self, shape=(32, 32), pool=None):
        cube = np.abs(RNG.normal(size=shape))
        return cube, ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(cache_blocks=pool),
        )

    def test_touched_coefficients_polylog(self):
        """The §3.1.1 cost claim: appends touch O(polylog) coefficients."""
        counts = []
        for log_n in (6, 8, 10):
            n = 2**log_n
            engine = ProPolyneEngine(
                np.zeros(n), max_degree=1, block_size=7
            )
            counts.append(engine.insert((n // 3,)))
        assert counts[-1] < 2**10 / 8
        growth = np.diff(counts)
        assert all(g <= 30 for g in growth)

    def test_progressive_bounds_still_guaranteed_after_insert(self):
        cube, engine = self._fresh()
        for _ in range(5):
            engine.insert((int(RNG.integers(0, 32)), int(RNG.integers(0, 32))))
        query = RangeSumQuery.count([(4, 27), (9, 30)])
        exact = engine.evaluate_exact(query)
        for est in engine.evaluate_progressive(query):
            assert abs(est.estimate - exact) <= est.error_bound + 1e-6

    def test_insert_with_buffer_pool_stays_coherent(self):
        cube, engine = self._fresh(pool=16)
        total = RangeSumQuery.count([(0, 31), (0, 31)])
        engine.evaluate_exact(total)  # warm the pool
        before = engine.evaluate_exact(total)
        engine.insert((0, 0))
        assert engine.evaluate_exact(total) == pytest.approx(before + 1.0)

    def test_validation(self):
        __, engine = self._fresh()
        with pytest.raises(QueryError):
            engine.insert((1,))
        with pytest.raises(QueryError):
            engine.insert((32, 0))
        with pytest.raises(QueryError):
            engine.insert((-1, 0))

    def test_concurrent_writers_and_readers_stay_consistent(self):
        # Regression for the insert concurrency hazard: two concurrent
        # inserts used to race their per-block read-modify-writes (lost
        # updates).  Inserts now serialize on the engine update lock and
        # commit through the group-write path; readers run lock-free
        # throughout and must always see a finite, sane total.
        import threading

        engine = ProPolyneEngine(
            np.zeros((16, 16)), max_degree=1, block_size=7
        )
        n_writers, per_writer = 6, 30
        stop_reading = threading.Event()
        reader_errors: list[Exception] = []
        total_query = RangeSumQuery.count([(0, 15), (0, 15)])

        def write(k):
            for j in range(per_writer):
                engine.insert(((k * 5 + j) % 16, (j * 3) % 16))

        def read():
            while not stop_reading.is_set():
                try:
                    value = engine.evaluate_exact(total_query)
                    assert np.isfinite(value)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    reader_errors.append(exc)
                    return

        writers = [
            threading.Thread(target=write, args=(k,))
            for k in range(n_writers)
        ]
        readers = [threading.Thread(target=read) for _ in range(3)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop_reading.set()
        for t in readers:
            t.join()
        assert not reader_errors
        # No lost updates: the cube total equals every insert applied.
        assert engine.evaluate_exact(total_query) == pytest.approx(
            n_writers * per_writer
        )

    @settings(max_examples=20, deadline=None)
    @given(
        x=st.integers(0, 15),
        y=st.integers(0, 15),
        lo=st.integers(0, 15),
        hi=st.integers(0, 15),
    )
    def test_insert_property(self, x, y, lo, hi):
        cube = np.zeros((16, 16))
        engine = ProPolyneEngine(cube, max_degree=0, block_size=3)
        engine.insert((x, y))
        query = RangeSumQuery.count([(min(lo, hi), max(lo, hi)), (0, 15)])
        expected = 1.0 if min(lo, hi) <= x <= max(lo, hi) else 0.0
        assert engine.evaluate_exact(query) == pytest.approx(
            expected, abs=1e-9
        )
