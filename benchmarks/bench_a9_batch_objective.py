"""Ablation A9 — batch error objective: average (L2) vs worst-case (max).

§3.3.1: "for some applications it is important to minimize the standard
deviation (i.e., the standard L2 norm) of the errors.  For other
applications it may be more important to ensure that any large
differences between results for related ranges are captured early."

The batch evaluator implements both orderings; this ablation runs an
8-cell group-by under each and reports, per I/O step, the mean and the
max guaranteed bound — showing each objective winning its own metric.
The cube is populated for degree-1 measures: at degree 0 (Haar) the
eight dyadic-aligned cells live in two blocks, every bound is zero
after the second, and the two objectives print the same trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.sensors.atmosphere import atmospheric_cube

from _util import format_table


def run_study():
    cube = atmospheric_cube((64, 64), np.random.default_rng(91))
    engine = ProPolyneEngine(cube, max_degree=1, block_size=7)
    queries = [
        RangeSumQuery.count([(8 * g, 8 * g + 7), (0, 63)]) for g in range(8)
    ]
    batch = BatchEvaluator(engine)

    traces = {}
    for objective in ("l2", "max"):
        mean_bounds = []
        max_bounds = []
        for step in batch.evaluate_progressive(queries, objective=objective):
            mean_bounds.append(float(np.mean(step.error_bounds)))
            max_bounds.append(float(np.max(step.error_bounds)))
        traces[objective] = (mean_bounds, max_bounds)

    checkpoints = [1, 2, 4, 8, 16, 32]
    rows = []
    for step in checkpoints:
        idx = min(step, len(traces["l2"][0])) - 1
        rows.append(
            [
                step,
                f"{traces['l2'][0][idx]:.1f}",
                f"{traces['max'][0][idx]:.1f}",
                f"{traces['l2'][1][idx]:.1f}",
                f"{traces['max'][1][idx]:.1f}",
            ]
        )
    return traces, rows


def test_a9_objectives_win_their_metric(emit, benchmark):
    traces, rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    emit(
        "A9_batch_objective",
        format_table(
            ["blocks", "mean bound (l2)", "mean bound (max)",
             "max bound (l2)", "max bound (max)"],
            rows,
        ),
    )
    n = len(traces["l2"][0])
    quarter = n // 4
    # The worst-case objective dominates on the max-bound metric early on.
    assert traces["max"][1][quarter] <= traces["l2"][1][quarter] + 1e-9
    # Both converge to zero.
    assert traces["l2"][1][-1] == pytest.approx(0.0, abs=1e-6)
    assert traces["max"][1][-1] == pytest.approx(0.0, abs=1e-6)
