"""The data-approximation baseline ProPolyne is compared against.

§3.3: "wavelets are often thought of as a data approximation tool, and
have been used this way for approximate range query answering [Vitter &
Wang etc.].  The efficacy of this approach is highly data dependent; it
only works when the data have a concise wavelet approximation."

This engine implements that classic approach: keep only the ``budget``
largest wavelet coefficients of the cube and answer every (exactly
translated) query against the lossy synopsis.  Experiment E4 sweeps the
budget and shows the error "varies wildly with the dataset" while
ProPolyne's query approximation does not.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import QueryError
from repro.core.reduce import dot
from repro.query.propolyne import pad_to_pow2, translate_query
from repro.query.rangesum import RangeSumQuery
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import get_filter
from repro.wavelets.tensor import tensor_wavedec

__all__ = ["DataApproxEngine"]


class DataApproxEngine:
    """Answer range-sums against a top-B wavelet synopsis of the data.

    Args:
        cube: Frequency/measure cube (padded internally like ProPolyne).
        budget: Number of coefficients retained.
        max_degree: Highest measure degree queries will use (chooses the
            same filter ProPolyne would, so comparisons are apples to
            apples).
    """

    def __init__(
        self, cube: np.ndarray, budget: int, max_degree: int = 2
    ) -> None:
        self.original_shape = tuple(np.asarray(cube).shape)
        self.filter = get_filter(f"db{max_degree + 1}")
        padded = pad_to_pow2(cube)
        self.shape = padded.shape
        self.levels = tuple(max_levels(n, self.filter) for n in self.shape)
        coeffs = tensor_wavedec(padded, self.filter, levels=self.levels)
        flat = coeffs.ravel()
        if not 1 <= budget <= flat.size:
            raise QueryError(
                f"synopsis budget {budget} outside [1, {flat.size}]"
            )
        self.budget = budget
        order = np.argsort(-np.abs(flat), kind="stable")[:budget]
        self._entries = {int(i): float(flat[i]) for i in order}
        self.dropped_energy = float(dot(flat, flat) - dot(flat[order], flat[order]))

    @property
    def size(self) -> int:
        """Retained coefficient count."""
        return len(self._entries)

    def evaluate(self, query: RangeSumQuery) -> float:
        """Answer a query against the synopsis (exact query translation,
        lossy data)."""
        keys, values = translate_query(
            query, self.original_shape, self.shape, self.levels, self.filter
        )
        flat_idx = np.ravel_multi_index(keys.T, self.shape).tolist()
        return float(dot(values, [self._entries.get(i, 0.0) for i in flat_idx]))
