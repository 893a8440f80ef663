"""Ablation A2 — virtual block size.

The tiling allocation's block size B trades per-block utilization (grows
like lg(B+1)) against the number of blocks a query must fetch.  This
ablation sweeps B for a fixed ProPolyne query workload and reports blocks
read, items fetched and raw items-per-block utilization — the engineering
curve behind §3.2.1's choice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.sensors.atmosphere import atmospheric_cube

from _util import format_table

BLOCK_SIZES = (3, 7, 15, 31)


def run_sweep():
    cube = atmospheric_cube((64, 64), np.random.default_rng(23))
    rng = np.random.default_rng(24)
    queries = []
    for _ in range(12):
        lo1, lo2 = rng.integers(0, 40, size=2)
        queries.append(
            RangeSumQuery.count(
                [(int(lo1), int(min(63, lo1 + 25))),
                 (int(lo2), int(min(63, lo2 + 25)))]
            )
        )
    expected = [evaluate_on_cube(cube, q) for q in queries]

    rows = []
    reads_by_b = {}
    for block in BLOCK_SIZES:
        engine = ProPolyneEngine(cube, max_degree=0, block_size=block)
        before = engine.store.io_snapshot()
        coeffs = 0
        for q, want in zip(queries, expected):
            got = engine.evaluate_exact(q)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-6)
            coeffs += engine.n_query_coefficients(q)
        reads = engine.store.io_since(before).reads
        reads_by_b[block] = reads
        rows.append(
            [block * block, reads, coeffs, f"{coeffs / reads:.2f}"]
        )
    return reads_by_b, rows


def test_a2_block_size_tradeoff(emit, benchmark):
    reads_by_b, rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit(
        "A2_block_size_sweep",
        format_table(
            ["product block capacity", "blocks read (12 queries)",
             "coeffs needed", "needed coeffs per block"],
            rows,
        ),
    )
    # The block-read count is not monotone in B.  On a 64-long axis the
    # tiles are cut from the leaves up, so B = 15 (height 4) leaves a
    # 2-level root tile and five virtual blocks per axis, while B = 31
    # (height 5) leaves a 1-level root tile and only three: those nine
    # product blocks are so coarse that nearly every query reads all of
    # them, and capacity 961 reads more than capacity 225.  What holds:
    # capacity 961 reads fewer blocks than 49, which reads fewer than 9 ...
    reads = [reads_by_b[b] for b in BLOCK_SIZES]
    assert reads_by_b[31] < reads_by_b[7] < reads_by_b[3]
    # ... by a large total factor across the sweep.
    assert reads[0] > 3 * reads[-1]
    # The counts are deterministic; pinned.
    assert reads_by_b == {3: 312, 7: 158, 15: 85, 31: 96}
