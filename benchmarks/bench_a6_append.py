"""Ablation A6 — incremental append vs repopulation (§3.1.1 reason 2).

"The complexity of wavelet transformation for incremental update (append)
is low, making wavelets the appropriate choice given the continuous data
stream nature of immersidata, which is append only."

Reported: coefficients touched per append across domain sizes (polylog),
and the work and wall time of streaming 50 appends into a populated cube
via three paths — per-append in place, the vectorized batch append
(:class:`~repro.query.ingest.BatchInserter`, one group commit), and
rebuilding the whole cube once per append — with per-append latency
percentiles for the sequential incremental series.

The in-place-vs-rebuild gate is an exact work counter, not wall time:
coefficients an append touches against coefficients a rebuild computes.
Milliseconds are printed only, never written to the table; they move
with the transform's speed, while the counts are the same on any
machine.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery

from _util import fmt_ms, format_table, safe_percentile


def run_study():
    rows = []
    touches = []
    for log_n in (8, 10, 12):
        n = 2**log_n
        engine = ProPolyneEngine(np.zeros(n), max_degree=1, block_size=7)
        touched = engine.insert((n // 3,))
        touches.append(touched)
        rows.append([f"2^{log_n}", touched, f"{touched / n:.4f}"])

    # Streaming batch: 50 appends in place (sequential, then batched as
    # one group commit) vs 50 rebuild-from-scratch.
    rng = np.random.default_rng(61)
    base = np.abs(rng.normal(size=(64, 64)))
    points = [
        (int(p[0]), int(p[1]))
        for p in (rng.integers(0, 64, size=2) for _ in range(50))
    ]

    engine = ProPolyneEngine(base, max_degree=1, block_size=7)
    per_append_s = []
    append_coeffs = 0
    before = engine.store.io_snapshot()
    start = time.perf_counter()
    for p in points:
        tick = time.perf_counter()
        append_coeffs += engine.insert(p)
        per_append_s.append(time.perf_counter() - tick)
    append_time = time.perf_counter() - start
    append_blocks = engine.store.io_since(before).writes

    batch_engine = ProPolyneEngine(base, max_degree=1, block_size=7)
    before = batch_engine.store.io_snapshot()
    start = time.perf_counter()
    BatchInserter(batch_engine).insert_batch(points)
    batch_time = time.perf_counter() - start
    batch_blocks = batch_engine.store.io_since(before).writes

    cube = base.copy()
    rebuild_coeffs = rebuild_blocks = 0
    start = time.perf_counter()
    for p in points:
        cube[p] += 1.0
        rebuilt = ProPolyneEngine(cube, max_degree=1, block_size=7)
        # A rebuild computes every coefficient and writes every block.
        rebuild_coeffs += int(np.prod(rebuilt.store.shape))
        rebuild_blocks += rebuilt.store.io_snapshot().writes
    rebuild_time = time.perf_counter() - start
    work = {
        "append_coeffs": append_coeffs, "rebuild_coeffs": rebuild_coeffs,
        "append_blocks": append_blocks, "batch_blocks": batch_blocks,
        "rebuild_blocks": rebuild_blocks,
    }

    total = RangeSumQuery.count([(0, 63), (0, 63)])
    assert engine.evaluate_exact(total) == pytest.approx(
        rebuilt.evaluate_exact(total)
    )
    # The batched path must land on the sequential path exactly.
    assert batch_engine.evaluate_exact(total) == engine.evaluate_exact(
        total
    )
    return (
        touches, rows, work, append_time, batch_time, rebuild_time,
        per_append_s,
    )


def test_a6_append_cost(emit, benchmark):
    (touches, rows, work, append_time, batch_time, rebuild_time,
     per_append_s) = benchmark.pedantic(run_study, rounds=1, iterations=1)
    p50 = safe_percentile(per_append_s, 50)
    p95 = safe_percentile(per_append_s, 95)
    emit(
        "A6_incremental_append",
        format_table(["domain", "coeffs touched per append", "fraction"], rows)
        + f"\n50 streaming appends: {work['append_coeffs']} coefficients "
        f"touched in place vs {work['rebuild_coeffs']} computed rebuilding "
        f"per append; blocks written {work['append_blocks']} in place vs "
        f"{work['batch_blocks']} as one batched group commit vs "
        f"{work['rebuild_blocks']} rebuilding",
    )
    # Printed, not persisted: the table holds only what every machine
    # reproduces, so CI can diff it.
    print(f"wall time: {append_time * 1e3:.1f} ms in place "
          f"(per append p50 {fmt_ms(p50)} / p95 {fmt_ms(p95)}) vs "
          f"{batch_time * 1e3:.1f} ms batched vs "
          f"{rebuild_time * 1e3:.1f} ms rebuilding")
    # Polylog per-append footprint.
    growth = np.diff(touches)
    assert all(g <= 30 for g in growth)
    # In-place appends beat per-append repopulation by a wide margin in
    # transform work, and the batched path beats even the sequential
    # in-place loop.
    assert work["append_coeffs"] * 5 < work["rebuild_coeffs"]
    assert work["batch_blocks"] < work["append_blocks"]
    assert batch_time < append_time
