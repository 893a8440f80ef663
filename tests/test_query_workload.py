"""Tests for the workload generator and the extra packet cost functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError, TransformError
from repro.query.workload import drilldown_ranges, grid_group_by, random_ranges
from repro.wavelets.packet import (
    best_basis,
    lp_cost,
    threshold_cost,
    wavelet_packet_decompose,
)
from tests._blocks import block_of


class TestRandomRanges:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), count=st.integers(1, 30))
    def test_ranges_inside_domain(self, seed, count):
        shape = (32, 16)
        queries = random_ranges(shape, np.random.default_rng(seed), count=count)
        assert len(queries) == count
        for q in queries:
            for (lo, hi), n in zip(q.ranges, shape):
                assert 0 <= lo <= hi < n

    def test_width_bounds_respected(self):
        queries = random_ranges(
            (64,), np.random.default_rng(0), count=50,
            min_width=4, max_width=8,
        )
        for q in queries:
            lo, hi = q.ranges[0]
            assert 4 <= hi - lo + 1 <= 8

    def test_degrees_applied(self):
        queries = random_ranges(
            (16, 16), np.random.default_rng(0), count=3, degrees={1: 2}
        )
        assert all(q.polys[1] == (0.0, 0.0, 1.0) for q in queries)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(QueryError):
            random_ranges((1,), rng)
        with pytest.raises(QueryError):
            random_ranges((16,), rng, count=0)


class TestDrilldownRanges:
    def test_cluster_around_one_centre(self):
        queries = drilldown_ranges(
            (64, 64), np.random.default_rng(1), count=30, spread=4
        )
        los = np.array([q.ranges[0][0] for q in queries])
        his = np.array([q.ranges[0][1] for q in queries])
        # All corners within a small window -> a hot region.
        assert his.max() - los.min() <= 2 * 4 + 1

    def test_locality_pays_in_block_terms(self):
        """The drill-down workload touches far fewer distinct blocks than
        a random workload of the same size."""
        from repro.query.propolyne import ProPolyneEngine

        cube = np.abs(np.random.default_rng(2).normal(size=(64, 64)))
        engine = ProPolyneEngine(cube, max_degree=0, block_size=7)

        def distinct_blocks(queries):
            blocks = set()
            for q in queries:
                for idx in engine.query_entries(q):
                    blocks.add(block_of(engine.store.allocation, idx))
            return len(blocks)

        rng = np.random.default_rng(3)
        hot = distinct_blocks(drilldown_ranges((64, 64), rng, count=20))
        cold = distinct_blocks(random_ranges((64, 64), rng, count=20))
        assert hot < cold

    def test_validation(self):
        with pytest.raises(QueryError):
            drilldown_ranges((16, 16), np.random.default_rng(0), spread=0)


class TestGridGroupBy:
    def test_cells_partition_dimension(self):
        queries = grid_group_by((32, 16), dim=0, group_width=8)
        assert len(queries) == 4
        covered = []
        for q in queries:
            lo, hi = q.ranges[0]
            covered.extend(range(lo, hi + 1))
            assert q.ranges[1] == (0, 15)
        assert covered == list(range(32))

    def test_ragged_tail(self):
        queries = grid_group_by((20, 8), dim=0, group_width=8)
        assert queries[-1].ranges[0] == (16, 19)

    def test_validation(self):
        with pytest.raises(QueryError):
            grid_group_by((16, 16), dim=2, group_width=4)
        with pytest.raises(QueryError):
            grid_group_by((16, 16), dim=0, group_width=0)


class TestCostFunctionals:
    def test_threshold_cost_counts(self):
        cost = threshold_cost(1.0)
        assert cost(np.array([0.5, 2.0, -3.0, 0.9])) == 2.0

    def test_lp_cost_value(self):
        cost = lp_cost(1.0)
        assert cost(np.array([1.0, -2.0, 0.5])) == pytest.approx(3.5)

    def test_best_basis_under_alternative_costs(self):
        """Every additive cost yields a complete, disjoint basis cover."""
        t = np.arange(128)
        signal = np.sin(2 * np.pi * 30 * t / 128)
        tree = wavelet_packet_decompose(signal, "db3", max_level=4)
        for cost in (threshold_cost(0.05), lp_cost(1.0), lp_cost(0.5)):
            cover = best_basis(tree, cost=cost)
            assert sum(2.0 ** -len(p) for p in cover) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(TransformError):
            threshold_cost(0.0)
        with pytest.raises(TransformError):
            lp_cost(2.0)
