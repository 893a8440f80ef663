"""E5 — §3.3: the lazy wavelet transform translates polynomial range-sums
to the wavelet domain in **polylogarithmic** time, giving query cost
comparable to the best exact MOLAP techniques.

Workload: a linear-measure range-sum over [n/5, 4n/5] for domain sizes
n = 2^10 .. 2^18.  Reported: nonzero query coefficients and density per
n; translation wall time is printed, not persisted, so the table is the
same on every machine.  The shape: both grow like log n (a few dozen
entries per doubling), wildly below the O(n) a dense transform pays.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.wavelets.lazy import lazy_range_query_transform

from _util import format_table

LOG_SIZES = (10, 12, 14, 16, 18)


def translate(n):
    return lazy_range_query_transform(
        [0.0, 1.0], n // 5, 4 * n // 5, n, wavelet="db2"
    )


def run_scaling():
    rows = []
    counts = []
    times = []
    for log_n in LOG_SIZES:
        n = 2**log_n
        start = time.perf_counter()
        sparse = translate(n)
        elapsed = time.perf_counter() - start
        counts.append(len(sparse))
        times.append(elapsed)
        rows.append([f"2^{log_n}", len(sparse), f"{len(sparse) / n:.5f}"])
    return counts, times, rows


def test_e5_lazy_transform_polylog(emit, benchmark):
    counts, times, rows = run_scaling()
    emit(
        "E5_lazy_transform_scaling",
        format_table(["domain n", "nonzero coeffs", "density"], rows),
    )
    print("translate time: " + ", ".join(
        f"2^{log_n} {elapsed * 1e3:.2f} ms"
        for log_n, elapsed in zip(LOG_SIZES, times)
    ))
    # Each quadrupling of n adds only O(filter * levels) coefficients.
    growth = np.diff(counts)
    assert all(g <= 60 for g in growth), f"growth per 4x: {growth}"
    # Density collapses: polylog over n.
    assert counts[-1] / 2 ** LOG_SIZES[-1] < 0.002
    # Largest-domain translation is fast in absolute terms.
    assert times[-1] < 0.5

    # pytest-benchmark timing of the largest case.
    benchmark(translate, 2 ** LOG_SIZES[-1])


def test_e5_translation_exactness_at_scale(emit, benchmark):
    """At n = 2^16 the sparse transform still evaluates range-sums
    exactly against dense data (cost comparability is worthless without
    exactness)."""
    from repro.wavelets.dwt import wavedec

    n = 2**16
    rng = np.random.default_rng(5)
    data = rng.normal(size=n)
    flat = wavedec(data, "db2").to_flat()
    lo, hi = n // 5, 4 * n // 5

    def evaluate():
        sparse = lazy_range_query_transform([0.0, 1.0], lo, hi, n, "db2")
        return sparse.dot(flat)

    got = benchmark(evaluate)
    want = float(np.dot(np.arange(lo, hi + 1), data[lo : hi + 1]))
    assert got == pytest.approx(want, rel=1e-8)
