"""Ablation A7 — random projections vs wavelet-domain approximation.

§3.3.1 floats "dimension reduction techniques such as random projections"
as a ProPolyne refinement.  This ablation holds *storage* fixed (floats
retained) and compares three ways to answer COUNT range-sums
approximately on a smooth cube:

* ``sketch``   — a k-float Rademacher sketch (JL guarantee, data-agnostic);
* ``synopsis`` — the top-k wavelet coefficients (data approximation);
* ``propolyne``— progressive query approximation stopped after consuming
  k query coefficients (query approximation).

The shape to see: on compressible data the wavelet approaches crush the
sketch, which cannot exploit smoothness — the reason AIMS stores wavelets
and treats projections as a complement, not a substitute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.dataapprox import DataApproxEngine
from repro.query.propolyne import ProPolyneEngine
from repro.query.randproj import RandomProjectionEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.sensors.atmosphere import atmospheric_cube

from _util import format_table

BUDGET = 128  # floats of storage / coefficients consumed
N_QUERIES = 12


def run_comparison():
    cube = atmospheric_cube((64, 64), np.random.default_rng(71))
    rng = np.random.default_rng(72)
    queries = []
    for _ in range(N_QUERIES):
        lo1, lo2 = rng.integers(0, 40, size=2)
        queries.append(
            RangeSumQuery.count(
                [(int(lo1), int(min(63, lo1 + rng.integers(10, 30)))),
                 (int(lo2), int(min(63, lo2 + rng.integers(10, 30))))]
            )
        )
    exact = [evaluate_on_cube(cube, q) for q in queries]

    sketch = RandomProjectionEngine(cube, k=BUDGET, seed=1)
    synopsis = DataApproxEngine(cube, budget=BUDGET, max_degree=0)
    propolyne = ProPolyneEngine(cube, max_degree=0, block_size=7)

    def propolyne_at_budget(query):
        last = 0.0
        for est in propolyne.evaluate_progressive(query):
            last = est.estimate
            if est.coefficients_used >= BUDGET:
                break
        return last

    rel = lambda got, want: abs(got - want) / max(abs(want), 1.0)
    errors = {
        "sketch": [rel(sketch.evaluate(q), e) for q, e in zip(queries, exact)],
        "synopsis": [
            rel(synopsis.evaluate(q), e) for q, e in zip(queries, exact)
        ],
        "propolyne": [
            rel(propolyne_at_budget(q), e) for q, e in zip(queries, exact)
        ],
    }
    medians = {name: float(np.median(v)) for name, v in errors.items()}
    rows = [
        [name, BUDGET, f"{medians[name]:.4f}", f"{np.max(v):.4f}"]
        for name, v in errors.items()
    ]
    return medians, rows


def test_a7_sketch_vs_wavelets(emit, benchmark):
    medians, rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit(
        "A7_random_projection",
        format_table(
            ["method", "storage (floats)", "median rel.err", "max rel.err"],
            rows,
        ),
    )
    # Both wavelet approaches beat the data-agnostic sketch on smooth
    # data at equal storage — by a lot.
    assert medians["synopsis"] < medians["sketch"] / 2
    assert medians["propolyne"] < medians["sketch"] / 2
