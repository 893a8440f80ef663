"""Tests for tensor transforms and wavelet synopses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TransformError
from repro.wavelets.synopsis import build_synopsis
from repro.wavelets.tensor import tensor_levels, tensor_wavedec, tensor_waverec


RNG = np.random.default_rng(23)


class TestTensorTransform:
    @pytest.mark.parametrize("shape", [(8,), (8, 16), (4, 8, 4)])
    def test_roundtrip(self, shape):
        cube = RNG.normal(size=shape)
        coeffs = tensor_wavedec(cube, "haar")
        np.testing.assert_allclose(tensor_waverec(coeffs, "haar"), cube, atol=1e-9)

    def test_roundtrip_db2(self):
        cube = RNG.normal(size=(16, 16))
        coeffs = tensor_wavedec(cube, "db2")
        np.testing.assert_allclose(tensor_waverec(coeffs, "db2"), cube, atol=1e-9)

    def test_inner_product_preserved(self):
        """Multivariate Parseval — the multivariate ProPolyne identity."""
        a = RNG.normal(size=(8, 16))
        b = RNG.normal(size=(8, 16))
        wa = tensor_wavedec(a, "db2")
        wb = tensor_wavedec(b, "db2")
        assert float(np.sum(wa * wb)) == pytest.approx(float(np.sum(a * b)))

    def test_separable_query_is_outer_product(self):
        """W(q1 x q2) == (W q1) x (W q2): the fact that makes sparse
        multivariate queries possible."""
        from repro.wavelets.dwt import wavedec

        q1 = np.zeros(8)
        q1[2:6] = 1.0
        q2 = np.zeros(16)
        q2[5:11] = np.arange(5, 11, dtype=float)
        cube = np.outer(q1, q2)
        joint = tensor_wavedec(cube, "db2")
        w1 = wavedec(q1, "db2").to_flat()
        w2 = wavedec(q2, "db2").to_flat()
        np.testing.assert_allclose(joint, np.outer(w1, w2), atol=1e-9)

    def test_partial_levels(self):
        cube = RNG.normal(size=(16, 8))
        coeffs = tensor_wavedec(cube, "haar", levels=(2, 1))
        np.testing.assert_allclose(
            tensor_waverec(coeffs, "haar", levels=(2, 1)), cube, atol=1e-10
        )

    @pytest.mark.parametrize("wavelet", ["db2", "db4"])
    def test_every_line_keeps_the_bits_of_its_own_transform(self, wavelet):
        # An axis is transformed all lines at once; each line's bits are
        # the 1-D transform's of that line alone (db4's eight taps take
        # the pairwise path, db2's four the sequential one).
        from repro.wavelets.dwt import wavedec

        cube = RNG.normal(size=(16, 32, 8))
        levels = (1, 2, 0)
        want = cube
        for axis, depth in enumerate(levels):
            if depth:
                want = np.apply_along_axis(
                    lambda v, d=depth: wavedec(v, wavelet, levels=d).to_flat(),
                    axis, want,
                )
        got = tensor_wavedec(cube, wavelet, levels=levels)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_levels_mismatch_rejected(self):
        with pytest.raises(TransformError):
            tensor_wavedec(RNG.normal(size=(8, 8)), "haar", levels=(1,))

    def test_tensor_levels(self):
        from repro.wavelets.filters import get_filter

        assert tensor_levels((64, 8), get_filter("haar")) == (6, 3)


class TestSynopsis:
    def test_full_budget_is_lossless(self):
        cube = RNG.normal(size=(8, 8))
        syn = build_synopsis(cube, budget=64, wavelet="haar")
        np.testing.assert_allclose(syn.reconstruct(), cube, atol=1e-9)
        assert syn.dropped_energy == pytest.approx(0.0, abs=1e-12)

    def test_dropped_energy_equals_reconstruction_error(self):
        cube = RNG.normal(size=(16, 16))
        syn = build_synopsis(cube, budget=40, wavelet="haar")
        err = float(np.sum((syn.reconstruct() - cube) ** 2))
        assert err == pytest.approx(syn.dropped_energy, rel=1e-9)

    def test_smooth_data_compresses_well(self):
        t = np.linspace(0, 1, 64, endpoint=False)
        smooth = np.outer(np.sin(2 * np.pi * t), np.cos(2 * np.pi * t))
        syn = build_synopsis(smooth, budget=64, wavelet="db4")  # 1/64 of coeffs
        rel_err = np.sqrt(syn.dropped_energy / np.sum(smooth**2))
        assert rel_err < 0.05

    def test_random_data_compresses_poorly(self):
        """The dataset-dependence the paper's claim E4 highlights."""
        noise = RNG.normal(size=(64, 64))
        syn = build_synopsis(noise, budget=64, wavelet="db2")
        rel_err = np.sqrt(syn.dropped_energy / np.sum(noise**2))
        assert rel_err > 0.5

    def test_budget_validation(self):
        cube = RNG.normal(size=(4, 4))
        with pytest.raises(TransformError):
            build_synopsis(cube, budget=0)
        with pytest.raises(TransformError):
            build_synopsis(cube, budget=17)

    def test_size_property(self):
        syn = build_synopsis(RNG.normal(size=16), budget=5, wavelet="haar")
        assert syn.size == 5

    @settings(max_examples=20, deadline=None)
    @given(budget=st.integers(1, 64), seed=st.integers(0, 100))
    def test_error_monotone_in_budget(self, budget, seed):
        rng = np.random.default_rng(seed)
        cube = rng.normal(size=(8, 8))
        small = build_synopsis(cube, budget=budget, wavelet="haar")
        big = build_synopsis(cube, budget=min(64, budget + 8), wavelet="haar")
        assert big.dropped_energy <= small.dropped_energy + 1e-9

    def test_dot_sparse_matches_dense(self):
        cube = RNG.normal(size=(8, 8))
        syn = build_synopsis(cube, budget=20, wavelet="haar")
        query = {(2, 3): 1.5, (0, 0): -0.5, (7, 7): 2.0}
        dense = syn.coefficient_array()
        expected = sum(v * dense[idx] for idx, v in query.items())
        assert syn.dot_sparse(query) == pytest.approx(expected)

    def test_dot_sparse_float_identical_to_dense_gather(self):
        # The vectorized path (cached strides, one gather, one np.dot)
        # must reduce exactly like the dense-gather reference — float
        # identity, not approx.
        rng = np.random.default_rng(5)
        cube = rng.normal(size=(8, 8))
        syn = build_synopsis(cube, budget=20, wavelet="haar")
        query = {
            (int(i), int(j)): float(rng.normal())
            for i, j in rng.integers(0, 8, size=(17, 2))
        }
        flat = syn.coefficient_array().ravel()
        qvals = np.fromiter(query.values(), dtype=float, count=len(query))
        idx = np.array([i * 8 + j for i, j in query])
        reference = float(np.dot(qvals, flat[idx]))
        assert syn.dot_sparse(query) == reference

    def test_dot_sparse_empty_query_and_dropped_entries(self):
        cube = RNG.normal(size=(8, 8))
        syn = build_synopsis(cube, budget=4, wavelet="haar")
        assert syn.dot_sparse({}) == 0.0
        dropped = [
            divmod(i, 8) for i in range(64) if i not in syn.entries
        ]
        only_dropped = {dropped[0]: 3.0, dropped[1]: -2.0}
        assert syn.dot_sparse(only_dropped) == 0.0

    def test_coefficient_array_copies_stay_independent(self):
        cube = RNG.normal(size=(8, 8))
        syn = build_synopsis(cube, budget=20, wavelet="haar")
        first = syn.coefficient_array()
        first[0, 0] = 123.0  # caller-side mutation must not leak back
        second = syn.coefficient_array()
        assert second[0, 0] != 123.0 or syn.entries.get(0) == 123.0
