"""Ablation A3 — filter and basis choice (§3.1.1 / §3.3.1).

Two axes of the "choose the transformation to suit the query engine"
decision:

1. *Vanishing moments*: more moments buy sparser transforms of polynomial
   queries (and smoother-data compression) at the price of longer filters
   (wider boundary effects, more work per level).  Reported: query
   coefficient counts per filter order for COUNT / SUM / SUM-of-squares.
2. *Wavelet vs adapted packet basis*: the packet best basis wins data
   compression on oscillatory signals and changes nothing on smooth ones
   (any orthonormal basis answers queries exactly either way).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.packet_engine import PacketBasisEngine
from repro.query.rangesum import RangeSumQuery
from repro.sensors.atmosphere import atmospheric_cube
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import get_filter
from repro.wavelets.lazy import lazy_range_query_transform

from _util import format_table

N = 2**12


def run_moment_sweep():
    rows = []
    counts = {}
    for degree, label in ((0, "COUNT"), (1, "SUM(x)"), (2, "SUM(x^2)")):
        poly = [0.0] * degree + [1.0]
        row = [label]
        for order in (1, 2, 3, 4, 6):
            if order <= degree:
                row.append("-")  # too few moments: not sparse
                continue
            sparse = lazy_range_query_transform(
                poly, N // 7, 6 * N // 7, N, wavelet=f"db{order}"
            )
            counts[(degree, order)] = len(sparse)
            row.append(len(sparse))
        rows.append(row)
    return counts, rows


def test_a3_vanishing_moment_sweep(emit, benchmark):
    counts, rows = benchmark.pedantic(run_moment_sweep, rounds=1, iterations=1)
    emit(
        "A3a_filter_order_sweep",
        format_table(
            ["measure", "db1", "db2", "db3", "db4", "db6"], rows
        ),
    )
    # The minimal adequate filter is near-optimal; longer filters cost
    # more boundary coefficients, never fewer levels.
    assert counts[(0, 1)] <= counts[(0, 6)]
    assert counts[(1, 2)] <= counts[(1, 6)]
    # Every recorded count is polylogarithmic in N.
    assert all(c < 500 for c in counts.values())


def run_basis_comparison():
    t = np.arange(128)
    oscillatory = np.outer(
        np.sin(2 * np.pi * 30 * t / 128), np.sin(2 * np.pi * 30 * t / 128)
    ) + 0.05 * np.random.default_rng(31).normal(size=(128, 128))
    smooth = atmospheric_cube((128, 128), np.random.default_rng(32))

    depth = max_levels(128, get_filter("db4"))
    dwt_cover = ["a" * depth] + [
        "a" * k + "d" for k in range(depth - 1, -1, -1)
    ]
    rows = []
    errors = {}
    for name, cube in (("oscillatory", oscillatory), ("smooth", smooth)):
        adapted = PacketBasisEngine(cube, wavelet="db4")
        plain = PacketBasisEngine(
            cube, wavelet="db4", covers=[dwt_cover, dwt_cover]
        )
        budget = 256
        errors[(name, "adapted")] = adapted.compression_error(budget)
        errors[(name, "dwt")] = plain.compression_error(budget)
        rows.append(
            [name, f"{errors[(name, 'dwt')]:.4f}",
             f"{errors[(name, 'adapted')]:.4f}"]
        )
        # Exactness is basis-independent.
        q = RangeSumQuery.count([(10, 100), (20, 110)])
        assert adapted.evaluate_exact(q) == pytest.approx(
            plain.evaluate_exact(q), rel=1e-8
        )
    return errors, rows


def test_a3_packet_basis_adaptation(emit, benchmark):
    errors, rows = benchmark.pedantic(
        run_basis_comparison, rounds=1, iterations=1
    )
    emit(
        "A3b_basis_adaptation",
        format_table(
            ["dataset", "DWT top-256 rel.err", "best-basis top-256 rel.err"],
            rows,
        ),
    )
    # Packets win clearly on oscillatory data ...
    assert (
        errors[("oscillatory", "adapted")]
        < 0.7 * errors[("oscillatory", "dwt")]
    )
    # ... and essentially tie on smooth data (the cover is selected from
    # sample slices, so a sub-percent sampling wobble is possible).
    assert (
        errors[("smooth", "adapted")]
        <= errors[("smooth", "dwt")] * 1.02
    )
