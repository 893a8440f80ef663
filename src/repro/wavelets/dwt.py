"""Periodized orthonormal discrete wavelet transform.

This is the transform AIMS applies to acquired immersidata before storage
(§3.1.1 of the paper) and the basis in which ProPolyne evaluates polynomial
range-sums (§3.3).  Both uses require the transform to be an *orthogonal*
change of basis, so we implement the periodized decimated cascade whose
analysis matrix has orthonormal rows:

    approx[k] = sum_m h[m] * x[(2k + m) mod n]
    detail[k] = sum_m g[m] * x[(2k + m) mod n]

The flat coefficient layout packs a full decomposition of a length-``2^J``
signal into one vector of the same length::

    [ a_J | d_J | d_{J-1} ... | d_1 ]
      1     1     2        ...  2^(J-1) coefficients

i.e. ``flat[0]`` is the single coarsest scaling coefficient and
``flat[2^j : 2^(j+1)]`` holds the detail coefficients produced after
``J - j`` cascade steps.  This is the classical "error tree" ordering used
by the storage subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import TransformError
from repro.core.reduce import dot, dot_columns
from repro.wavelets.filters import WaveletFilter, get_filter

__all__ = [
    "cascade",
    "dwt_level",
    "idwt_level",
    "wavedec",
    "waverec",
    "WaveletCoefficients",
    "max_levels",
    "is_power_of_two",
]


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def max_levels(n: int, filt: WaveletFilter) -> int:
    """Deepest cascade depth for a length-``n`` signal under ``filt``.

    The cascade halves the signal at every level and stops once the current
    length would drop below the filter support (periodization with fewer
    samples than taps wraps the filter onto itself and loses
    orthonormality).
    """
    levels = 0
    while n % 2 == 0 and n >= filt.length and n > 1:
        n //= 2
        levels += 1
    return levels


def dwt_level(x: np.ndarray, filt: WaveletFilter) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis step along the last axis:
    ``x -> (approx, detail)``.

    Args:
        x: Signal (or a stack of signals) of even length
            ``n >= filt.length``.
        filt: Orthonormal filter bank.

    Returns:
        ``(approx, detail)``, each of length ``n // 2``; every line's
        bits are those of that line transformed alone: tap by tap, the
        windows' columns are summed in :func:`~repro.core.reduce.dot`'s
        order (:func:`~repro.core.reduce.dot_columns`), never gathered.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n % 2:
        raise TransformError(f"dwt_level needs even length, got {n}")
    if n < filt.length:
        raise TransformError(
            f"dwt_level needs length >= {filt.length} taps, got {n}"
        )
    half, taps = n // 2, filt.length
    # Tap m of window k, x[(2k + m) mod n], is sample k + m // 2 of the
    # even (m even) or odd samples, each extended by its wrap.
    phases = [np.concatenate([x[..., p::2], x[..., p:taps:2]], -1) for p in (0, 1)]
    columns = [phases[m % 2][..., m // 2 : m // 2 + half] for m in range(taps)]
    return dot_columns(columns, filt.lowpass), dot_columns(columns, filt.highpass)


def cascade(x: np.ndarray, filt: WaveletFilter, depth: int) -> list[np.ndarray]:
    """``depth`` analysis steps along the last axis, as the bands of the
    flat layout: ``[a_J, d_J, ..., d_1]``; a stack's lines all at once,
    each with its own bits (:func:`dwt_level`)."""
    bands = []
    for _ in range(depth):
        x, band = dwt_level(x, filt)
        bands.append(band)
    return [x, *bands[::-1]]


def idwt_level(
    approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter
) -> np.ndarray:
    """One periodized synthesis step, the exact inverse of :func:`dwt_level`."""
    approx = np.asarray(approx, dtype=float)
    detail = np.asarray(detail, dtype=float)
    if approx.shape != detail.shape:
        raise TransformError(
            f"approx/detail length mismatch: {approx.size} vs {detail.size}"
        )
    half = approx.size
    n = 2 * half
    x = np.zeros(n)
    # Transpose of the orthonormal analysis matrix: scatter-add each
    # coefficient back through its filter taps.
    idx = (2 * np.arange(half)[:, None] + np.arange(filt.length)[None, :]) % n
    np.add.at(x, idx, approx[:, None] * filt.lowpass[None, :])
    np.add.at(x, idx, detail[:, None] * filt.highpass[None, :])
    return x


@dataclass
class WaveletCoefficients:
    """A full multilevel decomposition.

    Attributes:
        approx: Coarsest approximation coefficients (length ``n / 2**levels``).
        details: Detail bands ordered coarsest-first, so ``details[0]`` was
            produced at the deepest cascade level.
        filter_name: Name of the filter bank used.
        length: Original signal length.
    """

    approx: np.ndarray
    details: list[np.ndarray]
    filter_name: str
    length: int

    @property
    def levels(self) -> int:
        """Number of cascade levels in this decomposition."""
        return len(self.details)

    def to_flat(self) -> np.ndarray:
        """Pack into the error-tree flat layout ``[a | d_coarse .. d_fine]``."""
        return np.concatenate([self.approx, *self.details])

    @classmethod
    def from_flat(
        cls, flat: np.ndarray, levels: int, filter_name: str
    ) -> "WaveletCoefficients":
        """Rebuild the banded structure from a flat layout vector."""
        flat = np.asarray(flat, dtype=float)
        n = flat.size
        approx_len = n >> levels
        if approx_len << levels != n:
            raise TransformError(
                f"flat length {n} does not admit {levels} levels"
            )
        approx = flat[:approx_len].copy()
        details = []
        offset = approx_len
        width = approx_len
        for _ in range(levels):
            details.append(flat[offset : offset + width].copy())
            offset += width
            width *= 2
        return cls(approx=approx, details=details, filter_name=filter_name, length=n)

    def energy(self) -> float:
        """Squared L2 norm — equals the signal's by orthonormality."""
        flat = self.to_flat()
        return float(dot(flat, flat))


def wavedec(
    x: np.ndarray, wavelet: str | WaveletFilter = "haar", levels: int | None = None
) -> WaveletCoefficients:
    """Full multilevel periodized decomposition.

    Args:
        x: Input signal; length must be divisible by ``2**levels``.
        wavelet: Filter name or :class:`WaveletFilter`.
        levels: Cascade depth; defaults to the maximum supported depth.

    Returns:
        A :class:`WaveletCoefficients` bundle.
    """
    filt = wavelet if isinstance(wavelet, WaveletFilter) else get_filter(wavelet)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise TransformError(f"wavedec expects a 1-D signal, got ndim={x.ndim}")
    depth = max_levels(x.size, filt) if levels is None else levels
    if depth < 0 or depth > max_levels(x.size, filt):
        raise TransformError(
            f"cannot run {depth} levels on length {x.size} with "
            f"{filt.length}-tap filter (max {max_levels(x.size, filt)})"
        )
    approx, *details = cascade(x, filt, depth)
    return WaveletCoefficients(
        approx=approx, details=details, filter_name=filt.name, length=x.size
    )


def waverec(coeffs: WaveletCoefficients) -> np.ndarray:
    """Exact inverse of :func:`wavedec`."""
    filt = get_filter(coeffs.filter_name)
    current = coeffs.approx
    for band in coeffs.details:
        current = idwt_level(current, band, filt)
    return current
