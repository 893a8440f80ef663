"""Tests for the adapted packet-basis engine (repro.query.packet_engine)."""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.query.packet_engine import PacketBasisEngine, cover_transform
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.wavelets.filters import get_filter
from repro.wavelets.packet import best_basis, wavelet_packet_decompose


RNG = np.random.default_rng(151)


class TestCoverTransform:
    def test_orthonormal(self):
        """Any cover transform preserves inner products."""
        filt = get_filter("db2")
        x = RNG.normal(size=64)
        y = RNG.normal(size=64)
        tree = wavelet_packet_decompose(x, filt)
        cover = best_basis(tree)
        tx = cover_transform(x, cover, filt)
        ty = cover_transform(y, cover, filt)
        assert float(np.dot(tx, ty)) == pytest.approx(float(np.dot(x, y)))

    def test_length_preserved(self):
        filt = get_filter("db2")
        x = RNG.normal(size=32)
        cover = ["a", "da", "dd"]
        assert cover_transform(x, cover, filt).size == 32


class TestExactness:
    @pytest.fixture(scope="class")
    def cube(self):
        return np.abs(RNG.normal(size=(32, 32))) + 0.5

    @pytest.fixture(scope="class")
    def engine(self, cube):
        return PacketBasisEngine(cube, wavelet="db2")

    @pytest.mark.parametrize(
        "ranges", [[(0, 31), (0, 31)], [(3, 20), (7, 30)], [(5, 5), (0, 31)]]
    )
    def test_count_exact(self, cube, engine, ranges):
        q = RangeSumQuery.count(ranges)
        assert engine.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube, q), rel=1e-8
        )

    def test_weighted_exact(self, cube, engine):
        q = RangeSumQuery.weighted([(2, 29), (4, 27)], {0: 1})
        assert engine.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube, q), rel=1e-8
        )

    def test_empty_query(self, engine):
        assert engine.evaluate_exact(RangeSumQuery.count([(5, 2), (0, 31)])) == 0.0

    def test_explicit_cover(self, cube):
        engine = PacketBasisEngine(
            cube, wavelet="db2", covers=[["a", "d"], ["a", "d"]]
        )
        q = RangeSumQuery.count([(3, 20), (7, 30)])
        assert engine.evaluate_exact(q) == pytest.approx(
            evaluate_on_cube(cube, q), rel=1e-8
        )

    def test_validation(self, cube, engine):
        with pytest.raises(QueryError):
            PacketBasisEngine(np.ones((2, 2)), wavelet="db2")
        with pytest.raises(QueryError):
            PacketBasisEngine(cube, covers=[["a", "d"]])
        with pytest.raises(QueryError):
            engine.evaluate_exact(RangeSumQuery.count([(0, 31)]))
        with pytest.raises(QueryError):
            engine.evaluate_exact(RangeSumQuery.count([(0, 32), (0, 31)]))
        with pytest.raises(QueryError):
            engine.compression_error(0)


class TestBasisAdaptation:
    def test_packet_basis_compresses_oscillatory_data_better(self):
        """The point of the basis library: a pure tone concentrates in a
        deep packet subband that the plain DWT smears."""
        t = np.arange(256)
        tone = np.sin(2 * np.pi * 60 * t / 256)
        cube = np.outer(tone, tone)
        adapted = PacketBasisEngine(cube, wavelet="db4")
        dwt_cover = None  # build the left-spine (plain DWT) cover
        from repro.wavelets.dwt import max_levels
        from repro.wavelets.filters import get_filter

        depth = max_levels(256, get_filter("db4"))
        cover = ["a" * depth] + ["a" * k + "d" for k in range(depth - 1, -1, -1)]
        plain = PacketBasisEngine(cube, wavelet="db4", covers=[cover, cover])
        budget = 64
        assert adapted.compression_error(budget) < plain.compression_error(budget)
