"""E12 — §3.3.1: multiple related range aggregates (group-by / drill-down)
evaluated simultaneously "share I/O maximally and retrieve the most
important data first".

Workload: an 8-cell group-by (COUNT per band) plus a drill-down (COUNT,
SUM, SUM-of-squares over one band) on a 64x64 cube.  Reported: blocks read
by the shared batch plan vs independent per-query evaluation, and the
progressive convergence of the whole batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.sensors.atmosphere import atmospheric_cube

from _util import format_table


def build():
    cube = atmospheric_cube((64, 64), np.random.default_rng(12))
    engine = ProPolyneEngine(cube, max_degree=2, block_size=7)
    group_by = [
        RangeSumQuery.count([(8 * g, 8 * g + 7), (0, 63)]) for g in range(8)
    ]
    drill_down = [
        RangeSumQuery.count([(16, 23), (0, 63)]),
        RangeSumQuery.weighted([(16, 23), (0, 63)], {1: 1}),
        RangeSumQuery.weighted([(16, 23), (0, 63)], {1: 2}),
    ]
    return cube, engine, group_by, drill_down


def run_study():
    cube, engine, group_by, drill_down = build()
    batch = BatchEvaluator(engine)
    results = {}
    rows = []
    for name, queries in (("group-by x8", group_by), ("drill-down x3", drill_down)):
        shared = batch.shared_block_count(queries)
        independent = batch.independent_block_count(queries)
        values = batch.evaluate_exact(queries)
        expected = [evaluate_on_cube(cube, q) for q in queries]
        np.testing.assert_allclose(values, expected, rtol=1e-8, atol=1e-6)
        results[name] = (shared, independent)
        rows.append(
            [name, independent, shared, f"{1 - shared / independent:.1%}"]
        )

    # Progressive batch: fraction of group-by cells within 5% per step.
    exact = [evaluate_on_cube(cube, q) for q in group_by]
    convergence = []
    for step in batch.evaluate_progressive(group_by):
        within = sum(
            1
            for est, bound, ex in zip(step.estimates, step.error_bounds, exact)
            if bound <= 0.05 * max(abs(ex), 1.0)
        )
        if step.blocks_read in (1, 2, 4, 8, 16, 32, 64) or within == len(exact):
            convergence.append([step.blocks_read, f"{within}/{len(exact)}"])
        if within == len(exact):
            break
    return results, rows, convergence


def test_e12_shared_io_batch(emit, benchmark):
    results, rows, convergence = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )
    emit(
        "E12_batch_shared_io",
        format_table(
            ["batch", "independent blocks", "shared blocks", "I/O saved"],
            rows,
        )
        + "\n\nprogressive batch (cells within guaranteed 5%):\n"
        + format_table(["blocks read", "cells pinned"], convergence),
    )
    for name, (shared, independent) in results.items():
        assert shared < independent, f"{name}: sharing saved nothing"
    # Drill-downs over one region share almost everything.
    shared, independent = results["drill-down x3"]
    assert shared <= independent / 2
