"""Tests for the extra packet cost functionals."""

import numpy as np
import pytest

from repro.core.errors import TransformError
from repro.wavelets.packet import (
    best_basis,
    lp_cost,
    threshold_cost,
    wavelet_packet_decompose,
)


class TestCostFunctionals:
    def test_threshold_cost_counts(self):
        cost = threshold_cost(1.0)
        assert cost(np.array([0.5, 2.0, -3.0, 0.9])) == 2.0

    def test_lp_cost_value(self):
        cost = lp_cost(1.0)
        assert cost(np.array([1.0, -2.0, 0.5])) == pytest.approx(3.5)

    def test_best_basis_under_alternative_costs(self):
        """Every additive cost yields a complete, disjoint basis cover."""
        t = np.arange(128)
        signal = np.sin(2 * np.pi * 30 * t / 128)
        tree = wavelet_packet_decompose(signal, "db3", max_level=4)
        for cost in (threshold_cost(0.05), lp_cost(1.0), lp_cost(0.5)):
            cover = best_basis(tree, cost=cost)
            assert sum(2.0 ** -len(p) for p in cover) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(TransformError):
            threshold_cost(0.0)
        with pytest.raises(TransformError):
            lp_cost(2.0)
