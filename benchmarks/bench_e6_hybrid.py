"""E6 — §3.3.1: hybrid standard/wavelet ProPolyne "can perform
dramatically better" than pure ProPolyne or a pure relational scan.

Workload: the paper's schema sketch — a relation (sensor_id, time, value)
with 16 sensors, 256 time buckets and 64 value buckets, 20k tuples.
Queries select a single sensor (the typical per-device analysis) and
aggregate over a time range.  Reported per plan: query coefficients
touched and blocks read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.hybrid import HybridEngine
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, relation_to_cube

from _util import format_table

SHAPE = (16, 256, 64)
N_TUPLES = 20_000


@pytest.fixture(scope="module")
def relation():
    return make_relation()


def make_relation():
    rng = np.random.default_rng(6)
    sensor = rng.integers(0, SHAPE[0], size=N_TUPLES)
    time_attr = rng.integers(0, SHAPE[1], size=N_TUPLES)
    value = np.clip(
        (np.sin(time_attr / 20.0) * 12 + 32 + rng.normal(0, 6, N_TUPLES)),
        0, SHAPE[2] - 1,
    ).astype(int)
    return np.column_stack([sensor, time_attr, value])


def run_comparison(relation):
    hybrid = HybridEngine(
        relation, SHAPE, standard_dims=(0,), max_degree=1, block_size=7
    )
    cube = relation_to_cube(relation, SHAPE)
    pure = ProPolyneEngine(cube, max_degree=1, block_size=7)

    t_range = (40, 200)
    v_range = (0, SHAPE[2] - 1)
    sensor = 5

    # Hybrid plan.
    value_h, cost = hybrid.query({0: {sensor}}, [t_range, v_range])

    # Pure ProPolyne plan: the categorical predicate becomes a width-1
    # wavelet range.
    pure_query = RangeSumQuery.count([(sensor, sensor), t_range, v_range])
    before = pure.store.io_snapshot()
    value_p = pure.evaluate_exact(pure_query)
    pure_blocks = pure.store.io_since(before).reads
    pure_coeffs = pure.n_query_coefficients(pure_query)

    # Relational plan: scan the matching partition.
    scan_rows = hybrid.relational_scan_cost({0: {sensor}})

    assert value_h == pytest.approx(value_p)
    rows = [
        ["hybrid", cost.query_coefficients, cost.blocks_read],
        ["pure ProPolyne", pure_coeffs, pure_blocks],
        ["relational scan", "-", scan_rows],
    ]
    return {
        "hybrid_coeffs": cost.query_coefficients,
        "hybrid_blocks": cost.blocks_read,
        "pure_coeffs": pure_coeffs,
        "pure_blocks": pure_blocks,
        "scan_rows": scan_rows,
    }, rows


def test_e6_hybrid_dramatically_cheaper(relation, emit, benchmark):
    out, rows = benchmark.pedantic(
        run_comparison, args=(relation,), rounds=1, iterations=1
    )
    emit(
        "E6_hybrid_vs_pure",
        format_table(["plan", "query coefficients", "I/O units"], rows),
    )
    # "Dramatically better" than pure ProPolyne on a point predicate:
    # the width-1 wavelet range costs a full sparse factor in the pure
    # plan, one partition in the hybrid plan.
    assert out["hybrid_coeffs"] * 2 < out["pure_coeffs"]
    assert out["hybrid_blocks"] <= out["pure_blocks"]
    # And far below the relational scan of the matching rows.
    assert out["hybrid_blocks"] * 2 < out["scan_rows"]
