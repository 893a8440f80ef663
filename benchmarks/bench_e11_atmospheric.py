"""E11 — Fig. 4: progressive/approximate range-aggregate queries over
atmospheric data, pivot-table style.

Workload: the synthetic climate cube as a (lat, lon, temperature-bucket)
relation.  Reported: (a) the exact pivot of regional average temperatures
(the Fig. 4 result screen), (b) the progressive error trace of a regional
COUNT — blocks read vs guaranteed relative bound — showing that a small
fraction of the I/O already pins the answer to 1 %.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.aggregates import StatisticalAggregates
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube, relation_to_cube
from repro.sensors.atmosphere import atmospheric_cube

from _util import format_table


def build_engine():
    rng = np.random.default_rng(11)
    field = atmospheric_cube((32, 64), rng)
    t_lo, t_hi = field.min(), field.max()
    t_bins = np.clip(
        np.round((field - t_lo) / (t_hi - t_lo) * 31), 0, 31
    ).astype(int)
    lat, lon = np.meshgrid(np.arange(32), np.arange(64), indexing="ij")
    relation = np.column_stack([lat.ravel(), lon.ravel(), t_bins.ravel()])
    cube = relation_to_cube(relation, (32, 64, 32))
    return cube, ProPolyneEngine(cube, max_degree=2, block_size=7)


def run_study():
    cube, engine = build_engine()
    stats = StatisticalAggregates(engine)

    # Pivot: average temperature bucket per (lat band, lon sector).
    pivot_rows = []
    for band, (lat_a, lat_b) in enumerate([(0, 7), (8, 15), (16, 23), (24, 31)]):
        row = [f"lat {lat_a}-{lat_b}"]
        for sector in range(4):
            lon_a, lon_b = 16 * sector, 16 * sector + 15
            avg = stats.average([(lat_a, lat_b), (lon_a, lon_b), (0, 31)], dim=2)
            row.append(f"{avg:.1f}")
        pivot_rows.append(row)

    # Progressive trace of a regional COUNT.
    query = RangeSumQuery.count([(8, 23), (10, 53), (12, 31)])
    exact = evaluate_on_cube(cube, query)
    trace = []
    total_blocks = None
    blocks_to_one_percent = None
    for est in engine.evaluate_progressive(query):
        rel_bound = est.error_bound / max(abs(exact), 1e-9)
        if blocks_to_one_percent is None and rel_bound <= 0.01:
            blocks_to_one_percent = est.blocks_read
        if est.blocks_read in (1, 2, 4, 8, 16, 32, 64, 128):
            trace.append(
                [est.blocks_read, f"{est.estimate:.1f}",
                 f"{rel_bound:.1%}"]
            )
        total_blocks = est.blocks_read
        final = est
    return pivot_rows, trace, exact, final, blocks_to_one_percent, total_blocks


def test_e11_atmospheric_pivot_and_progressive(emit, benchmark):
    (pivot_rows, trace, exact, final, blocks_1pct, total) = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )
    pivot = format_table(
        ["band", "sector-0", "sector-1", "sector-2", "sector-3"], pivot_rows
    )
    progressive = format_table(
        ["blocks read", "estimate", "guaranteed rel. bound"], trace
    )
    emit(
        "E11_atmospheric_olap",
        pivot
        + f"\n\nprogressive COUNT (exact {exact:.0f}):\n"
        + progressive
        + f"\nblocks to 1% guarantee: {blocks_1pct} of {total}",
    )

    # Equator bands are warmer than polar bands in every sector.
    for sector in range(1, 5):
        polar = float(pivot_rows[0][sector])
        temperate = float(pivot_rows[1][sector])
        assert temperate > polar

    # Progressive evaluation terminates exact, and 1% needs well under
    # the full block set.
    assert final.estimate == pytest.approx(exact)
    assert blocks_1pct is not None
    assert blocks_1pct < 0.8 * total
