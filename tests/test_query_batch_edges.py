"""Edge cases of the shared-I/O batch evaluator (`repro.query.batch`).

The contract under test: whatever the batch shape — empty, singleton, or
overlapping group-by cells — shared evaluation must return exactly what
independent evaluation returns, while never reading a block twice.
"""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.obs import MetricsRegistry, use_registry
from repro.query.batch import BatchEvaluator, group_by
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube


@pytest.fixture(scope="module")
def cube():
    rng = np.random.default_rng(23)
    return rng.poisson(2.0, (32, 32)).astype(float)


@pytest.fixture(scope="module")
def engine(cube):
    return ProPolyneEngine(cube, max_degree=1)


class TestBatchEdgeCases:
    def test_empty_batch_is_rejected(self, engine):
        evaluator = BatchEvaluator(engine)
        with pytest.raises(QueryError):
            evaluator.evaluate_exact([])
        with pytest.raises(QueryError):
            list(evaluator.evaluate_progressive([]))

    def test_single_query_batch_matches_independent(self, engine):
        query = RangeSumQuery.count([(3, 19), (8, 27)])
        evaluator = BatchEvaluator(engine)
        # One reduction order (repro.core.reduce): the same bits.
        assert evaluator.evaluate_exact([query])[0].hex() == (
            engine.evaluate_exact(query).hex()
        )
        # The shared plan for one query reads exactly its own blocks.
        assert evaluator.shared_block_count(
            [query]
        ) == evaluator.independent_block_count([query])

    def test_single_query_progressive_converges_to_exact(self, engine):
        query = RangeSumQuery.count([(5, 14), (2, 23)])
        evaluator = BatchEvaluator(engine)
        last = None
        for step in evaluator.evaluate_progressive([query]):
            last = step
        assert last.estimates[0] == pytest.approx(
            engine.evaluate_exact(query)
        )
        assert last.error_bounds[0] == pytest.approx(0.0, abs=1e-6)

    def test_overlapping_ranges_match_independent(self, engine, cube):
        # Heavily overlapping drill-down cells: the shared plan merges
        # most of their blocks, yet every answer must equal both the
        # independent engine answer and the dense reference.
        queries = [
            RangeSumQuery.count([(0, 15), (0, 15)]),
            RangeSumQuery.count([(4, 19), (4, 19)]),
            RangeSumQuery.count([(8, 23), (8, 23)]),
            RangeSumQuery.count([(8, 23), (4, 19)]),
        ]
        evaluator = BatchEvaluator(engine)
        values = evaluator.evaluate_exact(queries)
        for value, query in zip(values, queries):
            assert value == pytest.approx(engine.evaluate_exact(query))
            assert value == pytest.approx(evaluate_on_cube(cube, query))
        # Overlap means shared I/O strictly beats independent I/O here.
        assert evaluator.shared_block_count(
            queries
        ) < evaluator.independent_block_count(queries)

    def test_group_by_cells_overlapping_constraint_match_independent(
        self, engine, cube
    ):
        # Group-by over dim 0 with a constraint on dim 1: every cell
        # shares the dim-1 range, so cells overlap block-wise.  Each
        # cell's value must match an independently evaluated cell query.
        result = group_by(engine, dim=0, group_width=8,
                          other_ranges={1: (4, 27)})
        assert result.labels == ((0, 7), (8, 15), (16, 23), (24, 31))
        for (lo, hi), value in result.as_dict().items():
            cell = RangeSumQuery.count([(lo, hi), (4, 27)])
            assert value == pytest.approx(engine.evaluate_exact(cell))
            assert value == pytest.approx(evaluate_on_cube(cube, cell))
        assert result.blocks_read <= result.blocks_independent

    def test_batch_progressive_final_bounds_all_zero(self, engine):
        queries = [
            RangeSumQuery.count([(0, 15), (0, 15)]),
            RangeSumQuery.count([(4, 19), (4, 19)]),
        ]
        evaluator = BatchEvaluator(engine)
        for objective in ("l2", "max"):
            last = None
            for step in evaluator.evaluate_progressive(
                queries, objective=objective
            ):
                last = step
            for qi, query in enumerate(queries):
                assert last.estimates[qi] == pytest.approx(
                    engine.evaluate_exact(query)
                )
                assert last.error_bounds[qi] == pytest.approx(0.0, abs=1e-6)

    def test_batch_histograms_count_every_batch(self, engine):
        # Exact and degradable batches both count as batches, so both
        # must land in the per-batch histograms.
        queries = [
            RangeSumQuery.count([(0, 15), (0, 15)]),
            RangeSumQuery.count([(4, 19), (4, 19)]),
        ]
        evaluator = BatchEvaluator(engine)
        with use_registry(MetricsRegistry()) as reg:
            evaluator.evaluate_exact(queries)
            evaluator.evaluate_degradable(queries)
            assert reg.counter("query.batch.batches").value == 2
            for name in ("query.batch.size", "query.batch.blocks"):
                assert reg.histogram(name).count == 2
