"""Tests for the lazy wavelet transform (repro.wavelets.lazy).

The defining property: the sparse output must equal the dense wavelet
transform of the materialized query vector, coefficient for coefficient,
while touching only polylogarithmically many entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TransformError
from repro.wavelets.dwt import wavedec
from repro.wavelets.filters import daubechies, haar
from repro.wavelets.lazy import (
    SparseWaveletVector,
    lazy_range_query_transform,
    poly_after_filter,
)


def dense_query_transform(poly, lo, hi, n, wavelet, levels=None):
    """Reference implementation: materialize and densely transform."""
    q = np.zeros(n)
    idx = np.arange(lo, hi + 1)
    q[lo : hi + 1] = np.polynomial.polynomial.polyval(idx.astype(float), poly)
    return wavedec(q, wavelet, levels=levels).to_flat()


class TestPolyAfterFilter:
    def test_constant_through_haar_lowpass(self):
        out = poly_after_filter(np.array([1.0]), haar().lowpass)
        np.testing.assert_allclose(out, [np.sqrt(2)])

    def test_linear_through_haar_lowpass(self):
        # P(j) = j: Q(k) = h0*(2k) + h1*(2k+1) = (4k + 1)/sqrt(2).
        out = poly_after_filter(np.array([0.0, 1.0]), haar().lowpass)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(out, [s, 4 * s], atol=1e-12)

    def test_matches_direct_evaluation(self):
        poly = np.array([2.0, -1.0, 0.5])
        taps = daubechies(3).lowpass
        out = poly_after_filter(poly, taps)
        for k in (0, 3, 11):
            direct = sum(
                taps[m]
                * np.polynomial.polynomial.polyval(2 * k + m, poly)
                for m in range(taps.size)
            )
            assert np.polynomial.polynomial.polyval(k, out) == pytest.approx(
                direct
            )

    def test_highpass_annihilates_low_degree(self):
        filt = daubechies(3)
        for degree in range(3):
            poly = np.zeros(degree + 1)
            poly[degree] = 1.0
            out = poly_after_filter(poly, filt.highpass)
            assert np.max(np.abs(out)) < 1e-8


class TestAgainstDense:
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "db3"])
    @pytest.mark.parametrize(
        "lo,hi", [(0, 63), (5, 40), (17, 17), (0, 0), (60, 63), (1, 62)]
    )
    def test_count_query(self, wavelet, lo, hi):
        n = 64
        sparse = lazy_range_query_transform([1.0], lo, hi, n, wavelet)
        dense = dense_query_transform([1.0], lo, hi, n, wavelet)
        np.testing.assert_allclose(sparse.to_dense(), dense, atol=1e-9)

    @pytest.mark.parametrize("degree,wavelet", [(1, "db2"), (2, "db3"), (3, "db4")])
    def test_polynomial_measures(self, degree, wavelet):
        n = 128
        poly = np.arange(1.0, degree + 2)  # e.g. 1 + 2x + 3x^2
        sparse = lazy_range_query_transform(poly, 20, 90, n, wavelet)
        dense = dense_query_transform(poly, 20, 90, n, wavelet)
        np.testing.assert_allclose(
            sparse.to_dense(), dense, atol=1e-6 * max(1.0, np.abs(dense).max())
        )

    def test_partial_levels(self):
        n = 64
        sparse = lazy_range_query_transform([1.0], 10, 50, n, "db2", levels=3)
        dense = dense_query_transform([1.0], 10, 50, n, "db2", levels=3)
        np.testing.assert_allclose(sparse.to_dense(), dense, atol=1e-9)

    def test_full_domain_range(self):
        """SUM over the whole domain: only coarse coefficients survive."""
        n = 256
        sparse = lazy_range_query_transform([1.0], 0, n - 1, n, "db2")
        dense = dense_query_transform([1.0], 0, n - 1, n, "db2")
        np.testing.assert_allclose(sparse.to_dense(), dense, atol=1e-9)

    def test_empty_range(self):
        sparse = lazy_range_query_transform([1.0], 10, 5, 64, "haar")
        assert len(sparse) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(0, 127),
        width=st.integers(0, 127),
        degree=st.integers(0, 2),
    )
    def test_random_ranges_property(self, lo, width, degree):
        n = 128
        hi = min(n - 1, lo + width)
        poly = np.ones(degree + 1)
        sparse = lazy_range_query_transform(poly, lo, hi, n, "db3")
        dense = dense_query_transform(poly, lo, hi, n, "db3")
        np.testing.assert_allclose(
            sparse.to_dense(), dense, atol=1e-6 * max(1.0, np.abs(dense).max())
        )


class TestSurvivingInterior:
    """Measure degree >= vanishing moments: the high-pass channel does
    not annihilate the interior, so a band is its whole interval plus
    the boundary corrections — the transform must enumerate it."""

    @pytest.mark.parametrize(
        "poly,wavelet", [([0.0, 1.0], "haar"), ([2.0, -3.0, 1.0], "db2")]
    )
    @pytest.mark.parametrize(
        "lo,hi",
        [(0, 40), (23, 63), (0, 63), (0, 2), (61, 63), (5, 40), (62, 63)],
    )
    @pytest.mark.parametrize("levels", [None, 2])
    def test_matches_dense(self, poly, wavelet, lo, hi, levels):
        # (23, 63), (61, 63), (62, 63): db2's last windows wrap past
        # n - 1 and pick the interval up again.
        n = 64
        sparse = lazy_range_query_transform(poly, lo, hi, n, wavelet, levels)
        dense = dense_query_transform(poly, lo, hi, n, wavelet, levels)
        np.testing.assert_allclose(sparse.to_dense(), dense, atol=1e-9)


class TestSparsity:
    def test_polylog_nonzeros(self):
        """Nonzero count grows like log n, not n."""
        counts = []
        for log_n in (8, 10, 12, 14):
            n = 2**log_n
            sparse = lazy_range_query_transform(
                [1.0], n // 5, 4 * n // 5, n, "db2"
            )
            counts.append(len(sparse))
        # Each doubling of n adds O(filter length) coefficients.
        diffs = np.diff(counts)
        assert all(d <= 4 * 2 * 8 for d in diffs)
        assert counts[-1] < 2 ** 10  # vastly smaller than n = 2^14

    def test_haar_count_query_very_sparse(self):
        n = 2**12
        sparse = lazy_range_query_transform([1.0], 100, 3000, n, "haar")
        # Haar: at most 2 boundary coefficients per level + root region.
        assert len(sparse) <= 3 * 12 + 2

    def test_by_magnitude_sorted(self):
        sparse = lazy_range_query_transform([1.0], 3, 50, 64, "db2")
        mags = [abs(v) for _, v in sparse.by_magnitude()]
        assert mags == sorted(mags, reverse=True)

    def test_norm_matches_dense(self):
        sparse = lazy_range_query_transform([1.0], 3, 50, 64, "db2")
        dense = dense_query_transform([1.0], 3, 50, 64, "db2")
        assert sparse.norm() == pytest.approx(float(np.linalg.norm(dense)))


class TestDotProduct:
    def test_range_sum_via_wavelet_domain(self):
        """End-to-end ProPolyne identity on a random dataset."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=256)
        flat = wavedec(data, "db2").to_flat()
        lo, hi = 30, 200
        sparse = lazy_range_query_transform([1.0], lo, hi, 256, "db2")
        assert sparse.dot(flat) == pytest.approx(float(data[lo : hi + 1].sum()))

    def test_weighted_sum_with_linear_measure(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=128)
        flat = wavedec(data, "db2").to_flat()
        lo, hi = 10, 100
        sparse = lazy_range_query_transform([0.0, 1.0], lo, hi, 128, "db2")
        expected = float(np.dot(np.arange(lo, hi + 1), data[lo : hi + 1]))
        assert sparse.dot(flat) == pytest.approx(expected)


class TestValidation:
    def test_range_outside_domain(self):
        with pytest.raises(TransformError):
            lazy_range_query_transform([1.0], -1, 5, 64, "haar")
        with pytest.raises(TransformError):
            lazy_range_query_transform([1.0], 0, 64, 64, "haar")

    def test_too_many_levels(self):
        with pytest.raises(TransformError):
            lazy_range_query_transform([1.0], 0, 7, 8, "haar", levels=9)

    def test_bad_polynomial(self):
        with pytest.raises(TransformError):
            lazy_range_query_transform([], 0, 7, 8, "haar")


class TestVectorizedDot:
    def test_dot_matches_python_loop_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = 64
            size = int(rng.integers(1, 20))
            idx = rng.choice(n, size=size, replace=False)
            vec = SparseWaveletVector(
                n=n, levels=3, filter_name="db2",
                entries={int(i): float(v) for i, v in
                         zip(idx, rng.normal(size=size))},
            )
            data = rng.normal(size=n)
            reference = sum(
                val * data[i] for i, val in vec.entries.items()
            )
            assert vec.dot(data) == pytest.approx(reference, rel=1e-12)

    def test_dot_of_empty_vector_is_zero(self):
        vec = SparseWaveletVector(8, 3, "db2", {})
        assert vec.dot(np.ones(8)) == 0.0

    def test_dot_on_real_transform(self):
        # End-to-end: the sparse transform dotted with dense coefficients
        # equals the dense range-sum it encodes.
        rng = np.random.default_rng(7)
        signal = rng.normal(size=32)
        coeffs = wavedec(signal, "db2")
        sparse = lazy_range_query_transform([1.0], 5, 20, 32, wavelet="db2")
        assert sparse.dot(coeffs.to_flat()) == pytest.approx(
            float(np.sum(signal[5:21])), rel=1e-9
        )


class TestMeasuresBelowOne:
    """The drop thresholds follow a measure scaled below 1: such a query
    keeps the entries it has at scale 1 and answers the scaled sum."""

    @pytest.mark.parametrize("c", [1e-11, 1e-13, 1e-100])
    def test_scaled_range_sum_is_the_brute_force_sum(self, c):
        from repro.query.propolyne import ProPolyneEngine
        from repro.query.rangesum import RangeSumQuery

        cube = np.random.default_rng(5).poisson(3.0, (32, 16)).astype(float)
        engine = ProPolyneEngine(cube, max_degree=1, block_size=7)
        ranges = ((18, 26), (3, 14))
        scaled = RangeSumQuery(ranges, ((c,), (1.0,)))
        truth = c * cube[18:27, 3:15].sum()
        assert engine.evaluate_exact(scaled) == pytest.approx(truth, rel=1e-12)
        unit = RangeSumQuery(ranges, ((1.0,), (1.0,)))
        assert len(engine.query_entries(scaled)) == len(
            engine.query_entries(unit)
        )

    @pytest.mark.parametrize("c", [1e-13, 1e-100])
    def test_transform_keeps_the_unit_measures_entries(self, c):
        unit = lazy_range_query_transform([1.0], 18, 26, 32, "db2")
        scaled = lazy_range_query_transform([c], 18, 26, 32, "db2")
        assert scaled.arrays[0].tolist() == unit.arrays[0].tolist()
