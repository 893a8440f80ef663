"""Tests for the periodized multilevel DWT (repro.wavelets.dwt)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TransformError
from repro.core.reduce import dot
from repro.wavelets.dwt import (
    WaveletCoefficients,
    dwt_level,
    idwt_level,
    is_power_of_two,
    max_levels,
    wavedec,
    waverec,
)
from repro.wavelets.filters import daubechies, get_filter, haar


RNG = np.random.default_rng(7)


class TestSingleLevel:
    def test_haar_known_values(self):
        approx, detail = dwt_level(np.array([1.0, 1.0, 2.0, 2.0]), haar())
        np.testing.assert_allclose(approx, np.sqrt(2) * np.array([1.0, 2.0]))
        np.testing.assert_allclose(detail, [0.0, 0.0], atol=1e-12)

    def test_perfect_reconstruction_haar(self):
        x = RNG.normal(size=16)
        approx, detail = dwt_level(x, haar())
        np.testing.assert_allclose(idwt_level(approx, detail, haar()), x)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_perfect_reconstruction_daubechies(self, p):
        filt = daubechies(p)
        x = RNG.normal(size=64)
        approx, detail = dwt_level(x, filt)
        np.testing.assert_allclose(
            idwt_level(approx, detail, filt), x, atol=1e-10
        )

    def test_energy_preserved(self):
        filt = daubechies(3)
        x = RNG.normal(size=32)
        approx, detail = dwt_level(x, filt)
        assert np.dot(approx, approx) + np.dot(detail, detail) == pytest.approx(
            np.dot(x, x)
        )

    def test_odd_length_rejected(self):
        with pytest.raises(TransformError):
            dwt_level(np.ones(5), haar())

    def test_too_short_rejected(self):
        with pytest.raises(TransformError):
            dwt_level(np.ones(2), daubechies(2))

    def test_idwt_shape_mismatch(self):
        with pytest.raises(TransformError):
            idwt_level(np.ones(4), np.ones(3), haar())


def gathered_dwt_level(x, filt):
    """The reference analysis step: gather every periodized window
    ``x[(2k + m) mod n]`` and :func:`dot` it with the taps."""
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(filt.length)) % n
    windows = x[..., idx]
    return dot(windows, filt.lowpass), dot(windows, filt.highpass)


class TestTapColumns:
    # dwt_level sums strided tap columns instead of gathering windows;
    # its bits are the gather-then-dot reference's, for every filter.
    @pytest.mark.parametrize(
        "name", ["haar"] + [f"db{p}" for p in range(2, 11)]
    )
    def test_bitwise_the_gathered_windows(self, name):
        filt = get_filter(name)
        rng = np.random.default_rng(filt.length)
        # n == taps: every window wraps; then a few windows more.
        for n in (filt.length, filt.length + 2, 64):
            for x in (
                rng.normal(size=n),
                rng.normal(size=(3, 5, n)),
                np.moveaxis(rng.normal(size=(n, 4, 3)), 0, -1),
            ):
                for got, want in zip(dwt_level(x, filt),
                                     gathered_dwt_level(x, filt)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (name, n, x.shape)


class TestMultiLevel:
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "db4"])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_roundtrip(self, wavelet, n):
        x = RNG.normal(size=n)
        coeffs = wavedec(x, wavelet)
        np.testing.assert_allclose(waverec(coeffs), x, atol=1e-9)

    def test_partial_levels_roundtrip(self):
        x = RNG.normal(size=64)
        coeffs = wavedec(x, "db2", levels=3)
        assert coeffs.levels == 3
        assert coeffs.approx.size == 8
        np.testing.assert_allclose(waverec(coeffs), x, atol=1e-10)

    def test_inner_product_preserved(self):
        """The identity ProPolyne rests on: <f, g> == <Wf, Wg>."""
        f = RNG.normal(size=128)
        g = RNG.normal(size=128)
        wf = wavedec(f, "db3").to_flat()
        wg = wavedec(g, "db3").to_flat()
        assert np.dot(wf, wg) == pytest.approx(np.dot(f, g))

    def test_flat_roundtrip(self):
        x = RNG.normal(size=32)
        coeffs = wavedec(x, "db2", levels=4)
        flat = coeffs.to_flat()
        rebuilt = WaveletCoefficients.from_flat(flat, 4, "db2")
        np.testing.assert_allclose(waverec(rebuilt), x, atol=1e-10)

    def test_flat_layout_order(self):
        """Flat layout must be [approx | coarsest detail | ... | finest]."""
        x = RNG.normal(size=16)
        coeffs = wavedec(x, "haar")
        flat = coeffs.to_flat()
        assert flat[0] == pytest.approx(coeffs.approx[0])
        assert flat[1] == pytest.approx(coeffs.details[0][0])
        np.testing.assert_allclose(flat[8:], coeffs.details[-1])

    def test_haar_root_is_scaled_mean(self):
        x = RNG.normal(size=64)
        coeffs = wavedec(x, "haar")
        assert coeffs.approx[0] == pytest.approx(x.sum() / np.sqrt(64))

    def test_energy_method(self):
        x = RNG.normal(size=64)
        coeffs = wavedec(x, "db2")
        assert coeffs.energy() == pytest.approx(float(np.dot(x, x)))

    def test_too_many_levels_rejected(self):
        with pytest.raises(TransformError):
            wavedec(np.ones(8), "haar", levels=4)

    def test_2d_input_rejected(self):
        with pytest.raises(TransformError):
            wavedec(np.ones((4, 4)), "haar")

    def test_from_flat_bad_levels(self):
        with pytest.raises(TransformError):
            WaveletCoefficients.from_flat(np.ones(6), 2, "haar")


class TestMaxLevels:
    def test_power_of_two_haar(self):
        assert max_levels(64, haar()) == 6

    def test_db2_stops_before_filter_length(self):
        # db2 has 4 taps: cascade stops once length would drop below 4.
        assert max_levels(64, daubechies(2)) == 5

    def test_non_power_of_two(self):
        assert max_levels(48, haar()) == 4  # 48 -> 24 -> 12 -> 6 -> 3

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(48)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        log_n=st.integers(3, 8),
        order=st.sampled_from([1, 2, 3]),
    )
    def test_roundtrip_property(self, seed, log_n, order):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2**log_n)
        filt = get_filter(f"db{order}")
        if max_levels(x.size, filt) == 0:
            return
        np.testing.assert_allclose(
            waverec(wavedec(x, filt)), x, atol=1e-8
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_parseval_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=128)
        coeffs = wavedec(x, "db4")
        assert coeffs.energy() == pytest.approx(float(np.dot(x, x)), rel=1e-9)
