"""Tests for the ProPolyne engine: exactness, progressivity, error bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.query.propolyne import ProPolyneEngine, pad_to_pow2
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube


RNG = np.random.default_rng(61)


@pytest.fixture(scope="module")
def cube_1d():
    return RNG.normal(size=64) + 2.0


@pytest.fixture(scope="module")
def cube_2d():
    return np.abs(RNG.normal(size=(32, 32)))


@pytest.fixture(scope="module")
def engine_1d(cube_1d):
    return ProPolyneEngine(cube_1d, max_degree=2, block_size=7)


@pytest.fixture(scope="module")
def engine_2d(cube_2d):
    return ProPolyneEngine(cube_2d, max_degree=2, block_size=7)


class TestPadding:
    def test_already_dyadic(self):
        cube = np.ones((8, 16))
        np.testing.assert_array_equal(pad_to_pow2(cube), cube)

    def test_pads_with_zeros(self):
        cube = np.ones((5, 9))
        padded = pad_to_pow2(cube)
        assert padded.shape == (8, 16)
        assert padded.sum() == cube.sum()

    def test_padding_preserves_range_sums(self):
        cube = RNG.normal(size=(13,))
        engine = ProPolyneEngine(cube, max_degree=0, block_size=3)
        q = RangeSumQuery.count([(2, 9)])
        assert engine.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube, q)
        )


class TestExactEvaluation:
    @pytest.mark.parametrize(
        "lo,hi", [(0, 63), (5, 40), (17, 17), (0, 0), (62, 63)]
    )
    def test_count_1d(self, cube_1d, engine_1d, lo, hi):
        q = RangeSumQuery.count([(lo, hi)])
        assert engine_1d.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube_1d, q), rel=1e-9, abs=1e-9
        )

    def test_sum_1d(self, cube_1d, engine_1d):
        q = RangeSumQuery.weighted([(3, 50)], {0: 1})
        assert engine_1d.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube_1d, q)
        )

    def test_quadratic_1d(self, cube_1d, engine_1d):
        q = RangeSumQuery.weighted([(3, 50)], {0: 2})
        assert engine_1d.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube_1d, q)
        )

    def test_count_2d(self, cube_2d, engine_2d):
        q = RangeSumQuery.count([(4, 20), (1, 30)])
        assert engine_2d.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube_2d, q)
        )

    def test_cross_term_2d(self, cube_2d, engine_2d):
        q = RangeSumQuery.weighted([(2, 25), (3, 28)], {0: 1, 1: 1})
        assert engine_2d.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube_2d, q), rel=1e-7
        )

    def test_empty_query(self, engine_1d):
        assert engine_1d.evaluate_exact(RangeSumQuery.count([(5, 2)])) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        lo1=st.integers(0, 31),
        w1=st.integers(0, 31),
        lo2=st.integers(0, 31),
        w2=st.integers(0, 31),
        degree=st.integers(0, 2),
    )
    def test_exactness_property(self, cube_2d, engine_2d, lo1, w1, lo2, w2, degree):
        hi1, hi2 = min(31, lo1 + w1), min(31, lo2 + w2)
        q = RangeSumQuery.weighted([(lo1, hi1), (lo2, hi2)], {0: degree})
        got = engine_2d.evaluate_exact(q)
        want = evaluate_on_cube(cube_2d, q)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


class TestSparsity:
    def test_query_coefficient_count_polylog(self):
        counts = []
        for log_n in (8, 10, 12):
            cube = np.ones(2**log_n)
            engine = ProPolyneEngine(cube, max_degree=0, block_size=7)
            q = RangeSumQuery.count([(3, 2**log_n - 5)])
            counts.append(engine.n_query_coefficients(q))
        assert counts[-1] < 2**8  # far below n = 2^12
        diffs = np.diff(counts)
        assert all(d < 40 for d in diffs)  # ~O(filter taps) per level

    def test_2d_count_is_product_of_1d_counts(self, engine_2d):
        q = RangeSumQuery.count([(4, 20), (1, 30)])
        entries = engine_2d.query_entries(q)
        rows = {i for i, _ in entries}
        cols = {j for _, j in entries}
        assert len(entries) <= len(rows) * len(cols)


class TestProgressiveEvaluation:
    def test_final_estimate_is_exact(self, cube_2d, engine_2d):
        q = RangeSumQuery.count([(3, 29), (5, 25)])
        estimates = list(engine_2d.evaluate_progressive(q))
        assert estimates[-1].estimate == pytest.approx(
            evaluate_on_cube(cube_2d, q)
        )
        assert estimates[-1].error_bound == pytest.approx(0.0, abs=1e-9)

    def test_error_bound_is_guaranteed(self, cube_2d, engine_2d):
        q = RangeSumQuery.weighted([(3, 29), (5, 25)], {0: 1})
        exact = evaluate_on_cube(cube_2d, q)
        for est in engine_2d.evaluate_progressive(q):
            assert abs(est.estimate - exact) <= est.error_bound + 1e-6

    def test_bounds_monotone_nonincreasing(self, engine_2d):
        q = RangeSumQuery.count([(0, 31), (8, 23)])
        bounds = [
            e.error_bound for e in engine_2d.evaluate_progressive(q)
        ]
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    def test_importance_order_converges_fast(self, cube_2d, engine_2d):
        """Half the blocks should already give a far better estimate than
        the proportional share — the progressive promise of §3.3."""
        q = RangeSumQuery.count([(2, 29), (2, 29)])
        exact = evaluate_on_cube(cube_2d, q)
        estimates = list(engine_2d.evaluate_progressive(q))
        halfway = estimates[len(estimates) // 2]
        denom = abs(exact) or 1.0
        assert abs(halfway.estimate - exact) / denom < 0.05

    def test_blocks_read_counts_io(self, engine_2d):
        q = RangeSumQuery.count([(3, 29), (5, 25)])
        before = engine_2d.store.io_snapshot()
        estimates = list(engine_2d.evaluate_progressive(q))
        reads = engine_2d.store.io_since(before).reads
        assert reads == estimates[-1].blocks_read

    def test_empty_query_single_step(self, engine_1d):
        steps = list(engine_1d.evaluate_progressive(RangeSumQuery.count([(5, 2)])))
        assert len(steps) == 1
        assert steps[0].estimate == 0.0


class TestValidation:
    def test_degree_exceeds_filter(self, engine_1d):
        q = RangeSumQuery.weighted([(0, 10)], {0: 3})  # engine max_degree=2
        with pytest.raises(QueryError):
            engine_1d.evaluate_exact(q)

    def test_dimension_mismatch(self, engine_2d):
        with pytest.raises(QueryError):
            engine_2d.evaluate_exact(RangeSumQuery.count([(0, 5)]))

    def test_range_out_of_domain(self, engine_1d):
        with pytest.raises(QueryError):
            engine_1d.evaluate_exact(RangeSumQuery.count([(0, 64)]))

    def test_negative_max_degree(self):
        with pytest.raises(QueryError):
            ProPolyneEngine(np.ones(16), max_degree=-1)

    def test_tiny_axis_rejected(self):
        with pytest.raises(QueryError):
            ProPolyneEngine(np.ones(2), max_degree=2)  # db3 needs length 8


class TestUpdates:
    def test_append_only_update_changes_answers(self):
        """The CDS append path: a coefficient update flows into results."""
        cube = np.zeros(32)
        cube[:16] = 1.0
        engine = ProPolyneEngine(cube, max_degree=0, block_size=3)
        q = RangeSumQuery.count([(0, 31)])
        assert engine.evaluate_exact(q) == pytest.approx(16.0)
        # Re-populating with one more tuple at position 20 == adding the
        # wavelet transform of a unit impulse; emulate via fresh engine.
        cube[20] += 1.0
        engine2 = ProPolyneEngine(cube, max_degree=0, block_size=3)
        assert engine2.evaluate_exact(q) == pytest.approx(17.0)
