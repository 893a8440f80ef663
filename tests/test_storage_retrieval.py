"""Tests for progressive signal retrieval (repro.storage.retrieval)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.storage.retrieval import SignalArchive


RNG = np.random.default_rng(211)


def smooth_signal(n=512, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / n
    return (
        10 * np.sin(2 * np.pi * 3 * t)
        + 4 * np.sin(2 * np.pi * 11 * t)
        + rng.normal(0, 0.3, n)
    )


class TestSignalArchive:
    def test_exact_retrieval_roundtrip(self):
        signal = smooth_signal()
        archive = SignalArchive(signal, wavelet="db2", block_size=7)
        np.testing.assert_allclose(archive.retrieve_exact(), signal, atol=1e-8)

    def test_residual_energy_is_true_error(self):
        """The orthonormality guarantee: residual energy == squared error."""
        signal = smooth_signal()
        archive = SignalArchive(signal, wavelet="db2")
        for step in archive.retrieve_progressive():
            true_err = float(np.sum((step.signal - signal) ** 2))
            assert true_err == pytest.approx(
                step.residual_energy, rel=1e-6, abs=1e-6
            )

    def test_refinements_monotone(self):
        signal = smooth_signal()
        archive = SignalArchive(signal, wavelet="db2")
        residuals = [
            s.residual_energy for s in archive.retrieve_progressive()
        ]
        assert all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] == pytest.approx(0.0, abs=1e-9)

    def test_smooth_signal_converges_early(self):
        """A handful of blocks already gives a faithful smooth signal."""
        signal = smooth_signal()
        archive = SignalArchive(signal, wavelet="db4", block_size=7)
        budget = max(2, archive.n_blocks // 10)
        approx = next(step for step in archive.retrieve_progressive()
                      if step.blocks_read >= budget)
        assert approx.nrmse(signal) < 0.05

    def test_block_budget_respected(self):
        """Refinement is lazy: stopping after 3 blocks reads 3 blocks."""
        archive = SignalArchive(smooth_signal(256))
        before = archive.store.io_snapshot()
        steps = archive.retrieve_progressive()
        approx = next(step for step in steps if step.blocks_read >= 3)
        assert approx.blocks_read == 3
        assert archive.store.io_since(before).reads <= 3

    def test_validation(self):
        with pytest.raises(StorageError):
            SignalArchive(np.zeros((4, 4)))
        with pytest.raises(StorageError):
            SignalArchive(np.zeros(2), wavelet="db4")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 200), log_n=st.integers(5, 9))
    def test_roundtrip_property(self, seed, log_n):
        rng = np.random.default_rng(seed)
        signal = rng.normal(size=2**log_n)
        archive = SignalArchive(signal, wavelet="haar", block_size=3)
        np.testing.assert_allclose(
            archive.retrieve_exact(), signal, atol=1e-8
        )
