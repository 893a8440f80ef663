"""Tests for the hybrid standard/wavelet engine (repro.query.hybrid)."""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.query.hybrid import HybridEngine
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, relation_to_cube


RNG = np.random.default_rng(83)


@pytest.fixture(scope="module")
def relation():
    """The paper's schema sketch: (sensor_id, time, value-bucket)."""
    n = 400
    sensor_id = RNG.integers(0, 6, size=n)
    time = RNG.integers(0, 64, size=n)
    value = RNG.integers(0, 32, size=n)
    return np.column_stack([sensor_id, time, value])


SHAPE = (6, 64, 32)


@pytest.fixture(scope="module")
def hybrid(relation):
    return HybridEngine(
        relation, SHAPE, standard_dims=(0,), max_degree=1, block_size=7
    )


def reference_count(relation, sensors, t_range, v_range):
    mask = np.isin(relation[:, 0], list(sensors))
    mask &= (relation[:, 1] >= t_range[0]) & (relation[:, 1] <= t_range[1])
    mask &= (relation[:, 2] >= v_range[0]) & (relation[:, 2] <= v_range[1])
    return float(mask.sum())


class TestCorrectness:
    def test_point_predicate_count(self, relation, hybrid):
        value, cost = hybrid.query(
            {0: {3}}, [(5, 50), (0, 31)]
        )
        assert value == pytest.approx(
            reference_count(relation, {3}, (5, 50), (0, 31))
        )
        assert cost.partitions_touched == 1

    def test_set_predicate_count(self, relation, hybrid):
        value, cost = hybrid.query({0: {1, 4}}, [(0, 63), (2, 20)])
        assert value == pytest.approx(
            reference_count(relation, {1, 4}, (0, 63), (2, 20))
        )
        assert cost.partitions_touched == 2

    def test_no_predicate_sums_all_partitions(self, relation, hybrid):
        value, cost = hybrid.query(None, [(0, 63), (0, 31)])
        assert value == pytest.approx(float(relation.shape[0]))
        assert cost.partitions_touched == 6

    def test_weighted_measure(self, relation, hybrid):
        value, _ = hybrid.query({0: {2}}, [(0, 63), (0, 31)], {0: 1})
        rows = relation[relation[:, 0] == 2]
        assert value == pytest.approx(float(rows[:, 1].sum()))

    def test_matches_pure_propolyne(self, relation, hybrid):
        cube = relation_to_cube(relation, SHAPE)
        pure = ProPolyneEngine(cube, max_degree=1, block_size=7)
        pure_q = RangeSumQuery.count([(3, 3), (5, 50), (0, 31)])
        hybrid_v, _ = hybrid.query({0: {3}}, [(5, 50), (0, 31)])
        assert hybrid_v == pytest.approx(pure.evaluate_exact(pure_q))


class TestCostAdvantage:
    def test_hybrid_cheaper_than_pure_on_point_predicate(self, relation, hybrid):
        """The E6 headline: a point predicate on a categorical dimension
        costs one partition instead of a per-dimension sparse factor."""
        cube = relation_to_cube(relation, SHAPE)
        pure = ProPolyneEngine(cube, max_degree=1, block_size=7)
        pure_q = RangeSumQuery.count([(3, 3), (5, 50), (0, 31)])
        pure_coeffs = pure.n_query_coefficients(pure_q)
        _, cost = hybrid.query({0: {3}}, [(5, 50), (0, 31)])
        assert cost.query_coefficients < pure_coeffs

    def test_hybrid_cheaper_than_relational_scan(self, hybrid):
        """Blocks read stay far below the matching-row scan count for a
        wide aggregate."""
        _, cost = hybrid.query({0: {3}}, [(0, 63), (0, 31)])
        scan = hybrid.relational_scan_cost({0: {3}})
        assert cost.blocks_read < scan

    def test_relational_scan_cost(self, relation, hybrid):
        assert hybrid.relational_scan_cost(None) == relation.shape[0]
        per_sensor = hybrid.relational_scan_cost({0: {1}})
        assert per_sensor == int(np.sum(relation[:, 0] == 1))


class TestValidation:
    def test_needs_standard_dim(self, relation):
        with pytest.raises(QueryError):
            HybridEngine(relation, SHAPE, standard_dims=())

    def test_needs_wavelet_dim(self, relation):
        with pytest.raises(QueryError):
            HybridEngine(relation, SHAPE, standard_dims=(0, 1, 2))

    def test_bad_standard_dim(self, relation):
        with pytest.raises(QueryError):
            HybridEngine(relation, SHAPE, standard_dims=(5,))

    def test_predicate_on_wavelet_dim_rejected(self, hybrid):
        with pytest.raises(QueryError):
            hybrid.query({1: {0}}, [(0, 63), (0, 31)])

    def test_wrong_range_arity(self, hybrid):
        with pytest.raises(QueryError):
            hybrid.query(None, [(0, 63)])

    def test_bad_relation_shape(self):
        with pytest.raises(QueryError):
            HybridEngine(np.zeros((4, 2), dtype=int), SHAPE, standard_dims=(0,))
