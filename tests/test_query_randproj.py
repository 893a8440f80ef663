"""Tests for the random-projection sketch baseline."""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.query.randproj import RandomProjectionEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube


RNG = np.random.default_rng(191)


@pytest.fixture(scope="module")
def cube():
    return np.abs(RNG.normal(size=(16, 16))) + 1.0


class TestSketch:
    def test_unbiased_across_seeds(self, cube):
        """Averaging over independent sketches converges to the truth."""
        q = RangeSumQuery.count([(2, 12), (4, 14)])
        exact = evaluate_on_cube(cube, q)
        estimates = [
            RandomProjectionEngine(cube, k=64, seed=s).evaluate(q)
            for s in range(12)
        ]
        assert np.mean(estimates) == pytest.approx(exact, rel=0.1)

    def test_error_shrinks_with_k(self, cube):
        q = RangeSumQuery.count([(2, 12), (4, 14)])
        exact = evaluate_on_cube(cube, q)

        def rms_error(k):
            errs = [
                RandomProjectionEngine(cube, k=k, seed=s).evaluate(q) - exact
                for s in range(8)
            ]
            return float(np.sqrt(np.mean(np.square(errs))))

        assert rms_error(256) < rms_error(16)

    def test_deterministic_given_seed(self, cube):
        q = RangeSumQuery.count([(0, 15), (0, 15)])
        a = RandomProjectionEngine(cube, k=32, seed=5).evaluate(q)
        b = RandomProjectionEngine(cube, k=32, seed=5).evaluate(q)
        assert a == b

    def test_weighted_measures_supported(self, cube):
        q = RangeSumQuery.weighted([(0, 15), (0, 15)], {0: 1})
        exact = evaluate_on_cube(cube, q)
        estimates = [
            RandomProjectionEngine(cube, k=128, seed=s).evaluate(q)
            for s in range(10)
        ]
        assert np.mean(estimates) == pytest.approx(exact, rel=0.15)

    def test_validation(self, cube):
        with pytest.raises(QueryError):
            RandomProjectionEngine(cube, k=0)
        engine = RandomProjectionEngine(cube, k=8)
        with pytest.raises(QueryError):
            engine.evaluate(RangeSumQuery.count([(0, 15)]))
        with pytest.raises(QueryError):
            engine.evaluate(RangeSumQuery.count([(0, 16), (0, 15)]))
