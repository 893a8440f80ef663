"""Orthonormal wavelet filter banks, built from scratch.

AIMS stores immersidata in the wavelet domain and evaluates ProPolyne
queries there, so everything in this package rests on *orthonormal*
quadrature-mirror filter pairs: the decimated transform they induce is an
orthogonal change of basis, hence inner products — and therefore range-sum
query results — are preserved exactly.

The module provides

* :class:`WaveletFilter` — an immutable filter-bank description carrying the
  low-pass (scaling) filter, the derived high-pass (wavelet) filter and the
  number of vanishing moments (the property ProPolyne's sparsity relies on);
* :func:`daubechies` — Daubechies extremal-phase filters of any order,
  computed by spectral factorization of the Daubechies polynomial rather
  than hard-coded tables;
* :func:`get_filter` — name-based lookup (``"haar"``, ``"db2"``, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from repro.core.errors import TransformError
from repro.core.reduce import dot

__all__ = ["WaveletFilter", "daubechies", "haar", "get_filter"]


def _frozen(taps: tuple[float, ...]) -> np.ndarray:
    array = np.asarray(taps, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class WaveletFilter:
    """An orthonormal two-channel filter bank.

    Attributes:
        name: Human-readable identifier, e.g. ``"db4"``.
        dec_lo: Low-pass (scaling) analysis filter ``h``, normalized so that
            ``sum(h) == sqrt(2)`` and ``sum(h**2) == 1``.
        vanishing_moments: Number ``p`` of vanishing moments of the wavelet:
            ``sum_k g[k] * k**t == 0`` for ``t < p``.  A polynomial measure
            of degree ``< p`` therefore produces *zero* detail coefficients
            away from range boundaries — the heart of the lazy wavelet
            transform's polylogarithmic sparsity.
    """

    name: str
    dec_lo: tuple[float, ...]
    vanishing_moments: int
    dec_hi: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        h = np.asarray(self.dec_lo, dtype=float)
        if h.ndim != 1 or h.size < 2 or h.size % 2:
            raise TransformError(
                f"filter {self.name!r}: low-pass tap count must be a "
                f"positive even number, got shape {h.shape}"
            )
        # Quadrature mirror: g[k] = (-1)^k h[L-1-k].
        length = h.size
        signs = (-1.0) ** np.arange(length)
        g = signs * h[::-1]
        object.__setattr__(self, "dec_hi", tuple(g.tolist()))

    @property
    def length(self) -> int:
        """Number of filter taps (support width)."""
        return len(self.dec_lo)

    @cached_property
    def lowpass(self) -> np.ndarray:
        """Low-pass analysis filter as a shared, read-only numpy array."""
        return _frozen(self.dec_lo)

    @cached_property
    def highpass(self) -> np.ndarray:
        """High-pass analysis filter as a shared, read-only numpy array."""
        return _frozen(self.dec_hi)

    def check_orthonormal(self, tol: float = 1e-9) -> None:
        """Raise :class:`TransformError` unless the bank is orthonormal.

        Verifies ``sum_m h[m] h[m + 2i] == delta_i`` for every shift ``i``,
        which is exactly the condition for the periodized decimated
        transform matrix to be orthogonal (for signal lengths >= taps).
        """
        h = self.lowpass
        for shift in range(0, self.length, 2):
            want = 1.0 if shift == 0 else 0.0
            got = float(dot(h[: self.length - shift], h[shift:]))
            if abs(got - want) > tol:
                raise TransformError(
                    f"filter {self.name!r} fails orthonormality at "
                    f"shift {shift}: <h, h_shift> = {got:.3e}"
                )

    @lru_cache(maxsize=256)
    def moment(self, order: int, highpass: bool = False) -> float:
        """Discrete filter moment ``sum_m f[m] * m**order``.

        The lazy wavelet transform uses low-pass moments to push polynomial
        interiors through a cascade level in closed form, and high-pass
        moments (which vanish for ``order < vanishing_moments``) to prove
        interior detail coefficients are zero.  Memoized: filters are
        immutable and few, and the cascade asks for the same handful of
        orders on every transform.
        """
        taps = self.highpass if highpass else self.lowpass
        positions = np.arange(self.length, dtype=float)
        return float(dot(taps, positions**order))


@lru_cache(maxsize=None)
def haar() -> WaveletFilter:
    """The Haar filter — ``db1`` — with one vanishing moment."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return WaveletFilter("haar", (inv_sqrt2, inv_sqrt2), vanishing_moments=1)


@lru_cache(maxsize=None)
def daubechies(p: int) -> WaveletFilter:
    """Daubechies extremal-phase filter with ``p`` vanishing moments.

    Constructed by spectral factorization: the Daubechies polynomial
    ``P(y) = sum_{k<p} C(p-1+k, k) y^k`` is mapped to the ``z`` domain via
    ``y = (2 - z - 1/z) / 4``; its roots inside the unit circle (plus the
    ``p``-fold root at ``z = -1``) form the minimum-phase square root of the
    product filter, which after normalization is the scaling filter ``h``.

    Args:
        p: Number of vanishing moments, ``p >= 1``; ``p == 1`` is Haar.

    Returns:
        A :class:`WaveletFilter` with ``2 * p`` taps.
    """
    if p < 1:
        raise TransformError(f"daubechies order must be >= 1, got {p}")
    if p == 1:
        return haar()

    # Daubechies polynomial P(y), coefficients in increasing powers of y.
    poly_y = np.array([math.comb(p - 1 + k, k) for k in range(p)], float)

    # Substitute y = (2 - z - z^-1)/4 and multiply by z^(p-1) to clear the
    # negative powers: build Q(z) = z^(p-1) * P((2 - z - 1/z)/4).
    # y^k * z^(p-1) = z^(p-1-k) * ((2z - z^2 - 1)/4)^k.
    q = np.zeros(2 * p - 1)
    base = np.array([-0.25, 0.5, -0.25])  # (-z^2 + 2z - 1)/4, ascending
    term = np.array([1.0])  # (base)^k, ascending powers of z
    for k in range(p):
        shifted = np.zeros(2 * p - 1)
        offset = p - 1 - k  # multiply by z^(p-1-k)
        shifted[offset : offset + term.size] = poly_y[k] * term
        q += shifted
        term = np.convolve(term, base)

    roots = np.roots(q[::-1])  # np.roots expects descending coefficients
    inside = [r for r in roots if abs(r) < 1.0 - 1e-10]
    if len(inside) != p - 1:
        raise TransformError(
            f"daubechies({p}): expected {p - 1} roots inside the unit "
            f"circle, found {len(inside)}"
        )

    # h(z) ~ (1 + z)^p * prod (z - r_i); normalize sum(h) = sqrt(2).
    coeffs = np.array([1.0])
    for _ in range(p):
        coeffs = np.convolve(coeffs, [1.0, 1.0])
    for root in inside:
        coeffs = np.convolve(coeffs, [1.0, -root])
    coeffs = np.real(coeffs)
    coeffs *= math.sqrt(2.0) / coeffs.sum()

    filt = WaveletFilter(f"db{p}", tuple(coeffs.tolist()), vanishing_moments=p)
    filt.check_orthonormal(tol=1e-7)
    return filt


def get_filter(name: str) -> WaveletFilter:
    """Look up a filter by name: ``"haar"`` or ``"dbP"`` for any order P."""
    lowered = name.strip().lower()
    if lowered in ("haar", "db1"):
        return haar()
    if lowered.startswith("db"):
        try:
            order = int(lowered[2:])
        except ValueError:
            raise TransformError(f"unknown wavelet filter {name!r}") from None
        return daubechies(order)
    raise TransformError(f"unknown wavelet filter {name!r}")
