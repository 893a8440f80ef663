"""Range-sum evaluation in adapted wavelet-packet bases (§3.3.1).

The paper's generalization agenda: "we intend to generalize the mechanism
underlying ProPolyne by looking beyond pure wavelets to find another basis
which may be more effective on a particular dataset ...  there is also a
need for best-basis (or at least good-basis) algorithms that efficiently
select an appropriate basis from a library of possibilities."

This module is that prototype.  Per dimension it selects a basis cover
from the full wavelet-packet library (Coifman–Wickerhauser best basis on
the axis marginal), transforms the cube into the adapted basis, and
evaluates polynomial range-sums exactly there — any orthonormal basis
preserves inner products, so correctness is basis-independent, while
*sparsity* (of the data or of queries) is what the basis choice buys.

Unlike the plain-wavelet engine, query translation here is dense per
dimension (O(n log n)): a *lazy* packet transform is exactly the open
problem the paper defers ("our understanding of this simplified problem
will provide a foundation for future use of the full DWPT").  The
benchmark ablation A3 quantifies what the adapted basis wins on
oscillatory data and what it costs on query sparsity.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import QueryError
from repro.core.reduce import dot
from repro.query.propolyne import pad_to_pow2
from repro.query.rangesum import RangeSumQuery
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import WaveletFilter, get_filter
from repro.wavelets.packet import (
    basis_transform,
    joint_best_basis,
    wavelet_packet_decompose,
)

__all__ = ["cover_transform", "PacketBasisEngine"]


def cover_transform(
    x: np.ndarray, cover: list[str], filt: WaveletFilter
) -> np.ndarray:
    """Transform a signal into a packet basis cover, flattened.

    Subbands are concatenated in sorted-path order, giving a fixed
    length-``n`` coordinate vector for the orthonormal basis the cover
    spans.
    """
    depth = max(len(p) for p in cover)
    tree = wavelet_packet_decompose(x, filt, max_level=depth)
    bands = basis_transform(tree, sorted(cover))
    return np.concatenate([bands[p] for p in sorted(bands)])


class PacketBasisEngine:
    """A cube stored in per-dimension adapted packet bases.

    Args:
        cube: Frequency/measure cube.
        wavelet: Filter for the packet library.
        covers: Optional explicit per-dimension basis covers; defaults to
            the best basis of each axis marginal (the "good-basis
            algorithm ... as part of the database population process").
    """

    def __init__(
        self,
        cube: np.ndarray,
        wavelet: str | WaveletFilter = "db2",
        covers: list[list[str]] | None = None,
    ) -> None:
        self.filter = (
            wavelet if isinstance(wavelet, WaveletFilter) else get_filter(wavelet)
        )
        padded = pad_to_pow2(cube)
        self.original_shape = tuple(np.asarray(cube).shape)
        self.shape = padded.shape
        for axis, n in enumerate(self.shape):
            if max_levels(n, self.filter) < 1:
                raise QueryError(
                    f"axis {axis} (size {n}) too small for packet analysis "
                    f"with {self.filter.length}-tap filter"
                )
        if covers is None:
            covers = []
            for axis in range(padded.ndim):
                # Joint best basis over sample slices along this axis —
                # the "good-basis algorithm as part of the database
                # population process" of §3.3.1.
                moved = np.moveaxis(padded, axis, -1).reshape(
                    -1, padded.shape[axis]
                )
                step = max(1, moved.shape[0] // 8)
                slices = [moved[i] for i in range(0, moved.shape[0], step)]
                covers.append(joint_best_basis(slices, self.filter))
        if len(covers) != padded.ndim:
            raise QueryError(
                f"{len(covers)} covers for a {padded.ndim}-d cube"
            )
        self.covers = [sorted(c) for c in covers]

        transformed = padded.copy()
        for axis, cover in enumerate(self.covers):
            transformed = np.apply_along_axis(
                lambda vec, c=cover: cover_transform(vec, c, self.filter),
                axis,
                transformed,
            )
        self._coeffs = transformed

    def _query_vectors(self, query: RangeSumQuery) -> list[np.ndarray]:
        """Dense per-dimension query vectors in the adapted bases."""
        if query.ndim != len(self.shape):
            raise QueryError(
                f"query has {query.ndim} dimensions, cube has "
                f"{len(self.shape)}"
            )
        vectors = []
        for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys)):
            if hi >= self.original_shape[axis]:
                raise QueryError(
                    f"dimension {axis}: range [{lo}, {hi}] exceeds domain "
                    f"size {self.original_shape[axis]}"
                )
            dense = np.zeros(self.shape[axis])
            if hi >= lo:
                idx = np.arange(lo, hi + 1, dtype=float)
                dense[lo : hi + 1] = np.polynomial.polynomial.polyval(
                    idx, np.asarray(poly)
                )
            vectors.append(
                cover_transform(dense, self.covers[axis], self.filter)
            )
        return vectors

    def evaluate_exact(self, query: RangeSumQuery) -> float:
        """Exact range-sum via multilinear contraction in the adapted
        basis (orthonormality makes any cover give the same answer)."""
        if query.is_empty():
            return 0.0
        result = self._coeffs
        for vector in reversed(self._query_vectors(query)):
            result = dot(result, vector)
        return float(result)

    def compression_error(self, budget: int) -> float:
        """Relative L2 error of keeping the top-``budget`` coefficients in
        this basis — the quantity best-basis selection optimizes."""
        flat = np.abs(self._coeffs.ravel())
        if not 1 <= budget <= flat.size:
            raise QueryError(f"budget {budget} outside [1, {flat.size}]")
        order = np.sort(flat)[::-1]
        dropped = float(np.sum(order[budget:] ** 2))
        total = float(np.sum(order**2)) or 1.0
        return float(np.sqrt(dropped / total))
