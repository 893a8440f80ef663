"""Tensor-product (multivariate) wavelet transforms.

AIMS stores a multidimensional immersidata relation as a *data cube* — a
d-dimensional array of measure values or frequencies — transformed by the
standard tensor-product construction: the 1-D periodized transform is
applied independently along every axis.  Because each axis transform is
orthogonal, the composite is orthogonal too, so multivariate inner products
(and hence multivariate polynomial range-sums) are preserved.

The companion fact ProPolyne uses: the transform of a separable query
``q(x1, .., xd) = q1(x1) * ... * qd(xd)`` is the outer product of the 1-D
transforms, so a sparse per-dimension lazy transform yields a sparse
multivariate query.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import TransformError
from repro.wavelets.dwt import WaveletCoefficients, cascade, max_levels, waverec
from repro.wavelets.filters import WaveletFilter, get_filter

__all__ = ["tensor_wavedec", "tensor_waverec", "tensor_levels"]


def tensor_levels(
    shape: tuple[int, ...], filt: WaveletFilter
) -> tuple[int, ...]:
    """Maximum cascade depth along each axis of ``shape``."""
    return tuple(max_levels(n, filt) for n in shape)


def tensor_wavedec(
    cube: np.ndarray,
    wavelet: str | WaveletFilter = "haar",
    levels: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Transform every axis of ``cube``, returning a same-shape array.

    Each axis ends up in the flat error-tree layout of
    :meth:`WaveletCoefficients.to_flat`, so entry ``[i1, .., id]`` of the
    result is the coefficient pairing flat index ``i_k`` on axis ``k`` —
    exactly the indexing the sparse multivariate query uses.

    Args:
        cube: Dense d-dimensional data array.
        wavelet: Filter name or instance.
        levels: Per-axis cascade depth; defaults to per-axis maximum.

    Returns:
        Coefficient array with the same shape as ``cube``.
    """
    filt = wavelet if isinstance(wavelet, WaveletFilter) else get_filter(wavelet)
    data = np.asarray(cube, dtype=float)
    if levels is None:
        levels = tensor_levels(data.shape, filt)
    if len(levels) != data.ndim:
        raise TransformError(
            f"levels has {len(levels)} entries for a {data.ndim}-d cube"
        )
    out = data.copy()
    for axis, depth in enumerate(levels):
        if depth:
            # Every line of the axis at once, moved to the last axis.
            bands = cascade(np.moveaxis(out, axis, -1), filt, depth)
            out = np.moveaxis(np.concatenate(bands, axis=-1), -1, axis)
    return out


def tensor_waverec(
    coeffs: np.ndarray,
    wavelet: str | WaveletFilter = "haar",
    levels: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Exact inverse of :func:`tensor_wavedec` (same ``levels``)."""
    filt = wavelet if isinstance(wavelet, WaveletFilter) else get_filter(wavelet)
    data = np.asarray(coeffs, dtype=float)
    if levels is None:
        levels = tensor_levels(data.shape, filt)
    if len(levels) != data.ndim:
        raise TransformError(
            f"levels has {len(levels)} entries for a {data.ndim}-d cube"
        )
    out = data.copy()
    for axis, depth in enumerate(levels):
        if depth == 0:
            continue

        def invert(vec: np.ndarray, depth: int = depth) -> np.ndarray:
            bundle = WaveletCoefficients.from_flat(vec, depth, filt.name)
            return waverec(bundle)

        out = np.apply_along_axis(invert, axis, out)
    return out
