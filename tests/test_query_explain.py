"""Tests for the EXPLAIN facility (repro.query.explain)."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.query.explain import explain, format_plan
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery


RNG = np.random.default_rng(251)


@pytest.fixture(scope="module")
def engine():
    return ProPolyneEngine(
        np.abs(RNG.normal(size=(32, 32))), max_degree=1, block_size=7
    )


class TestExplain:
    def test_plan_matches_execution(self, engine):
        q = RangeSumQuery.count([(3, 28), (5, 30)])
        plan = explain(engine, q)
        assert plan.total_coefficients == engine.n_query_coefficients(q)
        before = engine.store.io_snapshot()
        engine.evaluate_exact(q)
        assert engine.store.io_since(before).reads == plan.blocks_to_read

    def test_explain_performs_no_data_io(self, engine):
        before = engine.store.io_snapshot()
        explain(engine, RangeSumQuery.count([(3, 28), (5, 30)]))
        assert engine.store.io_since(before).reads == 0

    def test_explain_shares_the_query_s_translation(self, engine):
        """One transform per axis for plan and answer together: the
        per-axis counts read the engine's located parts that
        ``explain``'s own ``query_located`` call just memoized, and the
        evaluation reads the same parts without translating again."""
        q = RangeSumQuery.count([(2, 27), (6, 29)])
        with use_registry(MetricsRegistry()) as reg:
            misses = reg.counter("query.parts.misses")
            hits = reg.counter("query.parts.hits")
            explain(engine, q)
            assert misses.value == q.ndim
            planned = hits.value
            engine.evaluate_exact(q)
            assert misses.value == q.ndim
            assert hits.value - planned == q.ndim
    def test_bound_covers_answer(self, engine):
        q = RangeSumQuery.count([(3, 28), (5, 30)])
        plan = explain(engine, q)
        answer = engine.evaluate_exact(q)
        assert abs(answer) <= plan.a_priori_bound + 1e-9

    def test_bound_is_the_priming_steps_bound_to_the_bit(self, engine):
        # explain and the evaluators sum one schedule's masses in one
        # order, so a zero-deadline answer carries exactly the plan's bound.
        for q in (
            RangeSumQuery.count([(3, 28), (5, 30)]),
            RangeSumQuery.weighted([(0, 17), (9, 9)], {0: 1}),
        ):
            primed = engine.evaluate_degradable(q, deadline_s=0)
            assert primed.blocks_read == 0
            assert explain(engine, q).a_priori_bound == primed.error_bound

    def test_product_structure(self, engine):
        q = RangeSumQuery.count([(3, 28), (5, 30)])
        plan = explain(engine, q)
        assert plan.total_coefficients <= (
            plan.per_dim_coefficients[0] * plan.per_dim_coefficients[1]
        )
        assert all(c > 0 for c in plan.per_dim_coefficients)

    def test_empty_query_plan(self, engine):
        plan = explain(engine, RangeSumQuery.count([(5, 2), (0, 31)]))
        assert plan.total_coefficients == 0
        assert plan.blocks_to_read == 0
        assert plan.a_priori_bound == 0.0

    def test_top_block_share_bounds(self, engine):
        plan = explain(engine, RangeSumQuery.count([(0, 31), (0, 31)]))
        assert 0.0 < plan.top_block_share <= 1.0

    def test_format_plan(self, engine):
        q = RangeSumQuery.weighted([(3, 28), (5, 30)], {0: 1})
        text = format_plan(explain(engine, q))
        assert "RangeSum over 2 dimensions" in text
        assert "dim 0: range [3, 28]" in text
        assert "blocks" in text
        assert "a-priori bound" in text
