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

    @property
    def size(self) -> int:
        """Number of retained coefficients."""
        return len(self.entries)

    def coefficient_array(self) -> np.ndarray:
        """Dense coefficient cube with dropped entries zeroed."""
        flat = np.zeros(int(np.prod(self.shape)))
        for idx, val in self.entries.items():
            flat[idx] = val
        return flat.reshape(self.shape)

    def reconstruct(self) -> np.ndarray:
        """Approximate data cube implied by the synopsis."""
        return tensor_waverec(self.coefficient_array(), self.wavelet)


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
