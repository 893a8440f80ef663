"""Wavelet synopses — the data-approximation baseline.

§3.3 of the AIMS paper contrasts ProPolyne's *query* approximation with the
then-dominant approach of approximating the *data*: keep only the B largest
wavelet coefficients of the dataset ([Vitter & Wang 1999] style) and answer
every query exactly against that lossy synopsis.  The paper's claim E4 is
that the data-approximation error "varies wildly with the dataset" while
query approximation is consistent; this module provides the baseline needed
to reproduce that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import TransformError
from repro.core.reduce import dot
from repro.wavelets.tensor import tensor_wavedec, tensor_waverec

__all__ = ["WaveletSynopsis", "build_synopsis"]


@dataclass
class WaveletSynopsis:
    """A top-B wavelet coefficient synopsis of a data cube.

    Attributes:
        shape: Shape of the summarized cube.
        wavelet: Filter name used for the transform.
        entries: Mapping from flat (raveled) coefficient index to value —
            the B retained coefficients.
        dropped_energy: Squared L2 norm of the discarded coefficients; by
            orthonormality this is exactly the squared reconstruction error.
    """

    shape: tuple[int, ...]
    wavelet: str
    entries: dict[int, float]
    dropped_energy: float

    def __post_init__(self) -> None:
        # ``entries`` is treated as immutable after construction; the
        # dense flat vector is built from it on the first dot_sparse call.
        self._flat: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of retained coefficients."""
        return len(self.entries)

    def _flat_coefficients(self) -> np.ndarray:
        if self._flat is None:
            flat = np.zeros(int(np.prod(self.shape)))
            for idx, val in self.entries.items():
                flat[idx] = val
            self._flat = flat
        return self._flat

    def coefficient_array(self) -> np.ndarray:
        """Dense coefficient cube with dropped entries zeroed."""
        return self._flat_coefficients().reshape(self.shape).copy()

    def reconstruct(self) -> np.ndarray:
        """Approximate data cube implied by the synopsis."""
        return tensor_waverec(self.coefficient_array(), self.wavelet)

    def dot_sparse(self, query_entries: dict[tuple[int, ...], float]) -> float:
        """Inner product with a sparse wavelet-domain query.

        Only coefficients retained in the synopsis contribute — this is how
        the data-approximation baseline answers ProPolyne-style queries.
        Vectorized: one ravel of the query's multi-indices, one gather
        from the cached dense coefficient vector (dropped entries read as
        0.0), one :func:`~repro.core.reduce.dot`.
        """
        count = len(query_entries)
        if count == 0:
            return 0.0
        keys = np.fromiter(
            (k for multi_idx in query_entries for k in multi_idx),
            dtype=np.intp,
            count=count * len(self.shape),
        ).reshape(count, len(self.shape))
        flat_idx = np.ravel_multi_index(keys.T, self.shape)
        qvals = np.fromiter(query_entries.values(), dtype=float, count=count)
        return float(dot(qvals, np.take(self._flat_coefficients(), flat_idx)))


def build_synopsis(
    cube: np.ndarray, budget: int, wavelet: str = "haar"
) -> WaveletSynopsis:
    """Keep the ``budget`` largest-magnitude wavelet coefficients of ``cube``.

    Args:
        cube: Dense data cube.
        budget: Number of coefficients to retain, ``1 <= budget <= cube.size``.
        wavelet: Filter name.

    Returns:
        The synopsis, with exact dropped-energy bookkeeping.
    """
    data = np.asarray(cube, dtype=float)
    if not 1 <= budget <= data.size:
        raise TransformError(
            f"synopsis budget {budget} outside [1, {data.size}]"
        )
    coeffs = tensor_wavedec(data, wavelet)
    flat = coeffs.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    keep = order[:budget]
    entries = {int(i): float(flat[i]) for i in keep}
    dropped = float(np.sum(np.square(flat[order[budget:]])))
    return WaveletSynopsis(
        shape=data.shape,
        wavelet=wavelet,
        entries=entries,
        dropped_energy=dropped,
    )
