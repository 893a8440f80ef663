"""Random-projection sketches for approximate range-sums (§3.3.1).

The paper lists "dimension reduction techniques such as random
projections" among ProPolyne's candidate refinements.  This module
implements the classic construction so the benchmark can weigh it against
wavelet-domain query approximation:

The data cube, flattened to a vector ``d`` of length ``n``, is stored only
as its sketch ``y = R d`` for a ``k x n`` Rademacher matrix ``R`` (entries
``±1/sqrt(k)``).  Any range-sum is the inner product ``<q, d>``, estimated
by ``<R q, y>``, which is unbiased with variance ``~ ||q||^2 ||d||^2 / k``
— the Johnson–Lindenstrauss guarantee.  The rows of ``R`` are regenerated
on demand from a seeded counter-based generator, so the sketch costs
``k`` floats of storage, not ``k * n``.

The lesson the bench draws: at equal storage, the sketch's error is
*query-size-dependent and data-independent in the wrong way* — it cannot
exploit data smoothness the way the wavelet representation does — which is
why AIMS builds on wavelets and keeps projections as a complement.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import QueryError
from repro.core.reduce import dot
from repro.query.rangesum import RangeSumQuery

__all__ = ["RandomProjectionEngine"]


class RandomProjectionEngine:
    """A cube stored only as a k-row Rademacher sketch.

    Args:
        cube: The data cube.
        k: Sketch size (number of projections); storage is ``k`` floats.
        seed: Generator seed; the same seed regenerates the same ``R``.
    """

    def __init__(self, cube: np.ndarray, k: int, seed: int = 0) -> None:
        data = np.asarray(cube, dtype=float)
        if k < 1:
            raise QueryError(f"sketch size must be >= 1, got {k}")
        self.shape = data.shape
        self.n = data.size
        self.k = k
        self.seed = seed
        flat = data.ravel()
        self._sketch = np.array(
            [float(dot(self._row(i), flat)) for i in range(k)]
        )

    def _row(self, i: int) -> np.ndarray:
        """Row ``i`` of R, regenerated deterministically."""
        rng = np.random.default_rng((self.seed, i))
        return rng.choice([-1.0, 1.0], size=self.n) / np.sqrt(self.k)

    def _dense_query(self, query: RangeSumQuery) -> np.ndarray:
        if query.ndim != len(self.shape):
            raise QueryError(
                f"query has {query.ndim} dimensions, cube has "
                f"{len(self.shape)}"
            )
        weights = []
        for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys)):
            if hi >= self.shape[axis]:
                raise QueryError(
                    f"dimension {axis}: range [{lo}, {hi}] exceeds size "
                    f"{self.shape[axis]}"
                )
            w = np.zeros(self.shape[axis])
            if hi >= lo:
                idx = np.arange(lo, hi + 1, dtype=float)
                w[lo : hi + 1] = np.polynomial.polynomial.polyval(
                    idx, np.asarray(poly)
                )
            weights.append(w)
        dense = weights[0]
        for w in weights[1:]:
            dense = np.multiply.outer(dense, w)
        return dense.ravel()

    def evaluate(self, query: RangeSumQuery) -> float:
        """Unbiased sketch estimate of the range-sum."""
        q = self._dense_query(query)
        projected = np.array(
            [float(dot(self._row(i), q)) for i in range(self.k)]
        )
        return float(dot(projected, self._sketch))
