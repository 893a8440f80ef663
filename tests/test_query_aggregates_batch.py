"""Tests for statistical aggregates, batch shared-I/O, and data approx."""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.query.aggregates import StatisticalAggregates
from repro.query.batch import BatchEvaluator
from repro.query.dataapprox import DataApproxEngine
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube, relation_to_cube


RNG = np.random.default_rng(71)


@pytest.fixture(scope="module")
def relation():
    """200 tuples over attributes (a0, a1) in [0, 32)^2, correlated."""
    a0 = RNG.integers(0, 32, size=200)
    a1 = np.clip(a0 // 2 + RNG.integers(0, 8, size=200), 0, 31)
    return np.column_stack([a0, a1])


@pytest.fixture(scope="module")
def cube(relation):
    return relation_to_cube(relation, (32, 32))


@pytest.fixture(scope="module")
def engine(cube):
    return ProPolyneEngine(cube, max_degree=2, block_size=7)


@pytest.fixture(scope="module")
def stats(engine):
    return StatisticalAggregates(engine)


def in_range(relation, ranges):
    mask = np.ones(relation.shape[0], dtype=bool)
    for d, (lo, hi) in enumerate(ranges):
        mask &= (relation[:, d] >= lo) & (relation[:, d] <= hi)
    return relation[mask]


FULL = [(0, 31), (0, 31)]
PART = [(4, 25), (2, 28)]


class TestAggregates:
    def test_count(self, relation, stats):
        assert stats.count(PART) == pytest.approx(len(in_range(relation, PART)))

    def test_total(self, relation, stats):
        rows = in_range(relation, PART)
        assert stats.total(PART, dim=1) == pytest.approx(float(rows[:, 1].sum()))

    def test_average(self, relation, stats):
        rows = in_range(relation, PART)
        assert stats.average(PART, dim=0) == pytest.approx(
            float(rows[:, 0].mean())
        )

    def test_variance(self, relation, stats):
        rows = in_range(relation, FULL)
        assert stats.variance(FULL, dim=1) == pytest.approx(
            float(rows[:, 1].var()), rel=1e-6
        )

    def test_covariance(self, relation, stats):
        rows = in_range(relation, FULL)
        expected = float(np.cov(rows[:, 0], rows[:, 1], bias=True)[0, 1])
        assert stats.covariance(FULL, 0, 1) == pytest.approx(expected, rel=1e-6)

    def test_covariance_same_dim_is_variance(self, stats):
        assert stats.covariance(FULL, 1, 1) == pytest.approx(
            stats.variance(FULL, 1)
        )

    def test_positive_correlation_detected(self, stats):
        """The generator couples a1 to a0, so COV must come out positive —
        the paper's 'correlation between hits and attention' query shape."""
        assert stats.covariance(FULL, 0, 1) > 0

    def test_empty_range_average_rejected(self, stats):
        empty = [(30, 31), (0, 0)]
        if stats.count(empty) == pytest.approx(0.0, abs=1e-9):
            with pytest.raises(QueryError):
                stats.average(empty, dim=0)


class TestBatch:
    def _group_by_queries(self):
        """A 4-cell group-by over the first attribute."""
        return [
            RangeSumQuery.count([(8 * g, 8 * g + 7), (0, 31)])
            for g in range(4)
        ]

    def test_exact_matches_individual(self, cube, engine):
        queries = self._group_by_queries()
        batch = BatchEvaluator(engine)
        got = batch.evaluate_exact(queries)
        for value, query in zip(got, queries):
            assert value == pytest.approx(evaluate_on_cube(cube, query))

    def test_shared_io_saves_blocks(self, engine):
        queries = self._group_by_queries()
        batch = BatchEvaluator(engine)
        shared = batch.shared_block_count(queries)
        independent = batch.independent_block_count(queries)
        assert shared < independent

    def test_progressive_converges_per_query(self, cube, engine):
        queries = self._group_by_queries()
        batch = BatchEvaluator(engine)
        last = None
        for step in batch.evaluate_progressive(queries):
            last = step
        for value, query in zip(last.estimates, queries):
            assert value == pytest.approx(evaluate_on_cube(cube, query))
        assert all(b == pytest.approx(0.0, abs=1e-6) for b in last.error_bounds)

    def test_progressive_bounds_guaranteed(self, cube, engine):
        queries = self._group_by_queries()
        exacts = [evaluate_on_cube(cube, q) for q in queries]
        batch = BatchEvaluator(engine)
        for step in batch.evaluate_progressive(queries):
            for est, bound, exact in zip(
                step.estimates, step.error_bounds, exacts
            ):
                assert abs(est - exact) <= bound + 1e-6

    def test_empty_batch_rejected(self, engine):
        with pytest.raises(QueryError):
            BatchEvaluator(engine).evaluate_exact([])


class TestDataApprox:
    def test_full_budget_is_exact(self, cube):
        engine = DataApproxEngine(cube, budget=cube.size, max_degree=1)
        q = RangeSumQuery.count([(4, 25), (2, 28)])
        assert engine.evaluate(q) == pytest.approx(evaluate_on_cube(cube, q))

    def test_small_budget_approximates(self, cube):
        engine = DataApproxEngine(cube, budget=32, max_degree=1)
        q = RangeSumQuery.count([(0, 31), (0, 31)])
        exact = evaluate_on_cube(cube, q)
        got = engine.evaluate(q)
        # Whole-domain COUNT is dominated by the top coefficient: close.
        assert got == pytest.approx(exact, rel=0.2)

    def test_error_shrinks_with_budget(self, cube):
        q = RangeSumQuery.count([(3, 17), (9, 30)])
        exact = evaluate_on_cube(cube, q)
        errors = []
        for budget in (16, 128, 1024):
            engine = DataApproxEngine(cube, budget=budget, max_degree=1)
            errors.append(abs(engine.evaluate(q) - exact))
        assert errors[-1] <= errors[0] + 1e-9

    def test_dataset_dependence(self):
        """White noise defeats data approximation; smooth data does not —
        one half of claim E4."""
        from repro.sensors.atmosphere import atmospheric_cube, random_cube

        q = RangeSumQuery.count([(5, 50), (10, 60)])
        smooth = atmospheric_cube((64, 64))
        noise = random_cube((64, 64)) * 10 + 3.0
        errors = {}
        for name, cube in (("smooth", smooth), ("noise", noise)):
            exact = evaluate_on_cube(cube, q)
            engine = DataApproxEngine(cube, budget=100, max_degree=0)
            errors[name] = abs(engine.evaluate(q) - exact) / abs(exact)
        assert errors["smooth"] < errors["noise"]

    def test_budget_validation(self, cube):
        with pytest.raises(QueryError):
            DataApproxEngine(cube, budget=0)

    def test_size_property(self, cube):
        assert DataApproxEngine(cube, budget=10).size == 10
