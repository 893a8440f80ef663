"""The lazy wavelet transform of polynomial range queries.

ProPolyne (§3.3 of the AIMS paper) evaluates a polynomial range-sum as the
inner product ``<query_vector, data_vector>`` and exploits orthonormality to
compute it in the wavelet domain instead:
``<W q, W data>``.  The query vector of a polynomial range-sum,

    q[j] = P(j)   for lo <= j <= hi,     q[j] = 0 otherwise,

is *piecewise polynomial*, and a filter with ``p`` vanishing moments
annihilates polynomials of degree ``< p``, so ``W q`` has only
``O(filter_length * log n)`` nonzero entries — all near the range
boundaries.  The *lazy wavelet transform* computes exactly those entries in
polylogarithmic time by pushing a symbolic representation of ``q`` through
the cascade:

* an interior interval on which the signal equals a polynomial, mapped
  through each filter level in closed form via filter moments;
* a ``{position: value}`` dict of boundary "corrections", re-convolved
  directly (only ``O(filter_length)`` windows per level).

Everything in the cascade is a Python float: a window's two channel
sums are :func:`~repro.core.reduce.dot`'s sums of that row, in its order
(:func:`~repro.core.reduce.dot_row`; DESIGN.md's "One reduction order"),
and a polynomial sample is Horner in ``np.polynomial.polyval``'s order.

The output is a :class:`SparseWaveletVector` whose coefficients match the
dense :func:`repro.wavelets.dwt.wavedec` of the materialized query vector
coefficient-for-coefficient (a property the test suite asserts).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import cached_property, lru_cache

import numpy as np

from repro.core.errors import TransformError
from repro.core.reduce import dot, dot_row
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import WaveletFilter, get_filter

__all__ = [
    "SparseWaveletVector",
    "lazy_range_query_transform",
    "poly_after_filter",
]


def _through_filter(coeffs: list[float], moments: list[float]) -> list[float]:
    """``poly_after_filter`` on plain floats, given the filter's moments."""
    degree = len(coeffs) - 1
    out = []
    for t in range(degree + 1):
        acc = 0.0
        for d in range(t, degree + 1):
            acc += coeffs[d] * math.comb(d, t) * moments[d - t]
        out.append((2.0**t) * acc)
    return out


def poly_after_filter(poly: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Coefficients of ``Q(k) = sum_m taps[m] * P(2k + m)``.

    ``P`` is given by ascending coefficients ``poly``.  Expanding
    ``(2k + m)**d`` binomially and collecting powers of ``k``::

        Q_t = 2**t * sum_{d >= t} poly[d] * C(d, t) * M[d - t]

    where ``M[s] = sum_m taps[m] * m**s`` is the ``s``-th filter moment.
    This closed form is what lets a cascade level map a polynomial interior
    to a new polynomial interior without touching the signal samples.
    """
    poly = np.asarray(poly, dtype=float)
    positions = np.arange(taps.size, dtype=float)
    moments = [float(dot(taps, positions**s)) for s in range(poly.size)]
    return np.array(_through_filter(poly.tolist(), moments))


@lru_cache(maxsize=64)
def _constants(filt: WaveletFilter, size: int) -> tuple:
    """``filt``'s taps and moments as Python floats, for a measure of
    ``size`` coefficients.  Below the vanishing moments the detail
    interior is provably zero: its moments are ``None``, not residue
    that the growing approximation coefficients would amplify."""
    orders = range(size)
    high = None
    if size > filt.vanishing_moments:
        high = tuple(filt.moment(s, True) for s in orders)
    return filt.dec_lo, filt.dec_hi, tuple(filt.moment(s) for s in orders), high


def _horner(coeffs: list[float], x: int) -> float:
    """``P(x)``, by the IEEE operations ``np.polynomial.polyval`` performs."""
    acc = coeffs[-1] + x * 0.0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


class SparseWaveletVector:
    """Sparse wavelet-domain vector in the error-tree flat layout.

    Attributes:
        n: Original (signal-domain) length.
        levels: Cascade depth of the decomposition.
        filter_name: Filter used.
        arrays: ``(indices, values)`` in the order the transform emitted
            them, read-only — an engine's part memo holds them for every
            query on the range (``ProPolyneEngine._part``).  The flat layout
            is the one produced by :meth:`WaveletCoefficients.to_flat` —
            detail band of cascade step ``s`` occupies
            ``flat[n >> s : n >> (s - 1)]`` and the final approximation
            occupies ``flat[0 : n >> levels]``.
    """

    def __init__(
        self,
        n: int,
        levels: int,
        filter_name: str,
        entries: Mapping[int, float] | tuple[Sequence[int], Sequence[float]],
    ) -> None:
        """``entries``: a ``flat_index -> coefficient`` mapping, or the
        ``(indices, values)`` pair itself; copied either way."""
        if isinstance(entries, Mapping):
            entries = (list(entries.keys()), list(entries.values()))
        indices = np.array(entries[0], dtype=np.intp)
        values = np.array(entries[1], dtype=float)
        indices.flags.writeable = values.flags.writeable = False
        self.n = n
        self.levels = levels
        self.filter_name = filter_name
        self.arrays = (indices, values)

    def __len__(self) -> int:
        return self.arrays[0].size

    @cached_property
    def entries(self) -> dict[int, float]:
        """Mapping ``flat_index -> coefficient`` in entry order, for the
        consumers that name coefficients; must not be mutated."""
        indices, values = self.arrays
        return dict(zip(indices.tolist(), values.tolist()))

    def to_dense(self) -> np.ndarray:
        """Materialize the full flat-layout vector (for testing)."""
        dense = np.zeros(self.n)
        dense[self.arrays[0]] = self.arrays[1]
        return dense

    def dot(self, flat_data: np.ndarray) -> float:
        """Inner product against a dense flat-layout coefficient vector:
        one ``np.take`` gather of the touched positions and one dot."""
        indices, values = self.arrays
        return float(dot(values, np.take(np.asarray(flat_data, float), indices)))

    def norm(self) -> float:
        """L2 norm of the sparse vector."""
        return math.sqrt(dot(self.arrays[1], self.arrays[1]))


def lazy_range_query_transform(
    poly: np.ndarray | list[float],
    lo: int,
    hi: int,
    n: int,
    wavelet: str | WaveletFilter = "db2",
    levels: int | None = None,
) -> SparseWaveletVector:
    """Wavelet-transform the query vector of a polynomial range-sum.

    Computes ``W q`` for ``q[j] = P(j) * 1[lo <= j <= hi]`` without ever
    materializing ``q``, in time polylogarithmic in ``n`` (for measures of
    degree below the filter's vanishing moments).

    Entries come out finest band first and the final approximation last;
    inside a band, in the iteration order of the ``explicit`` set below.
    That order is the operand order of every reduction downstream, so it
    is part of the contract (``tests/lazy_transform_parent.json``).

    Args:
        poly: Ascending coefficients of the measure polynomial ``P``.
        lo: Inclusive range start, ``0 <= lo``.
        hi: Inclusive range end, ``hi <= n - 1``; ``hi < lo`` means an
            empty range (all-zero query).
        n: Domain size (signal length); the cascade requires the usual
            evenness per level.
        wavelet: Filter name or instance.  For exact sparsity choose one
            with ``vanishing_moments > deg(P)``.
        levels: Cascade depth; defaults to the maximum.

    Returns:
        The sparse transformed query vector.
    """
    filt = wavelet if isinstance(wavelet, WaveletFilter) else get_filter(wavelet)
    if not (0 <= lo and hi <= n - 1):
        raise TransformError(f"range [{lo}, {hi}] outside domain [0, {n - 1}]")
    deepest = max_levels(n, filt)
    depth = deepest if levels is None else levels
    if depth > deepest:
        raise TransformError(
            f"cannot run {depth} levels on length {n} with "
            f"{filt.length}-tap filter"
        )
    poly_arr = np.asarray(poly, dtype=float)
    if poly_arr.ndim != 1 or poly_arr.size == 0:
        raise TransformError("measure polynomial must be a 1-D coefficient list")
    if hi < lo:
        return SparseWaveletVector(n, depth, filt.name, {})

    taps = filt.length
    low, high, low_moments, high_moments = _constants(filt, poly_arr.size)
    # None once the interval has shrunk away.
    coeffs: list[float] | None = poly_arr.tolist()
    # The drop thresholds below are relative to the measure when its
    # coefficients are all below 1 in magnitude, and absolute at or
    # above 1: a measure scaled by 1e-13 keeps the entries it had at 1.
    unit = min(1.0, max(map(abs, coeffs))) or 1.0
    corrections: dict[int, float] = {}
    # (flat offset, interior polynomial, its interval, corrections) per band
    bands: list[tuple] = []
    length = n
    for _ in range(depth):
        half = length // 2
        approx_poly = detail_poly = None
        inner_lo, inner_hi = 0, -1
        # Windows needing explicit evaluation.  A set, filled in this
        # sequence: its iteration order is the band's entry order.
        explicit: set[int] = set()
        if coeffs is not None and hi >= lo:
            inner_lo = (lo + 1) // 2  # ceil(lo / 2)
            inner_hi = (hi - taps + 1) // 2  # floor
            # Horner as np.polynomial.polyval does it: c[-1] + x*0 first.
            head, rest = coeffs[-1] + 0.0, coeffs[-2::-1]
            approx_poly = _through_filter(coeffs, low_moments)
            if high_moments is not None:
                detail_poly = _through_filter(coeffs, high_moments)
            # Windows that overlap the interval but are not wholly
            # interior: the two ends of the overlap, never its middle.
            first = max(0, (lo - taps + 2) // 2 - 1)
            last = min(half - 1, hi // 2)
            explicit.update(range(first, min(inner_lo, last + 1)))
            explicit.update(range(max(inner_hi + 1, first), last + 1))
            # Windows that wrap past the end pick up interval mass near 0.
            explicit.update(range(max(0, (length - taps + 2) // 2 - 1), half))
        # Windows touching a correction: 2k + m = c (mod length).
        for c in corrections:
            for m in range(c & 1, taps, 2):
                explicit.add((c - m) % length // 2)

        approx_corr: dict[int, float] = {}
        detail_corr: dict[int, float] = {}
        if explicit:
            scale = max(map(abs, coeffs)) if coeffs is not None else unit
            scale += max(map(abs, corrections.values()), default=0.0)
            tol = 1e-13 * max(scale, unit)
            for k in explicit:
                # The window's two channel sums in dot's order: under 8
                # taps that is left to right from +0.0, added here as each
                # sample is made; a longer window is summed by dot_row.
                window = []
                a_val = d_val = 0.0
                m = 0
                for j in range(2 * k, 2 * k + taps):
                    if j >= length:
                        j -= length
                    value = corrections.get(j, 0.0)
                    if lo <= j <= hi:  # only when this level set head, rest
                        acc = head
                        for c in rest:
                            acc = c + acc * j
                        value = acc + value
                    window.append(value)
                    a_val += value * low[m]
                    d_val += value * high[m]
                    m += 1
                if taps >= 8:
                    a_val, d_val = dot_row(window, low), dot_row(window, high)
                if inner_lo <= k <= inner_hi:
                    a_val -= _horner(approx_poly, k)
                    if detail_poly is not None:
                        d_val -= _horner(detail_poly, k)
                if abs(a_val) > tol:
                    approx_corr[k] = a_val
                if abs(d_val) > tol:
                    detail_corr[k] = d_val

        bands.append((half, detail_poly, inner_lo, inner_hi, detail_corr))
        coeffs, lo, hi = approx_poly, inner_lo, inner_hi
        corrections, length = approx_corr, half
    bands.append((0, coeffs, lo, hi, corrections))

    indices, values = [], []
    for offset, coeffs, lo, hi, corrections in bands:
        items = corrections
        if coeffs is not None and not all(
            abs(c) <= 1e-12 * unit for c in coeffs
        ):
            # The interior survived — a detail band of a measure whose
            # degree reaches the filter's vanishing moments, or the final
            # approximation — so the band is its whole interval.
            items = {j: _horner(coeffs, j) for j in range(lo, hi + 1)}
            for j, delta in corrections.items():
                items[j] = items.get(j, 0.0) + delta
        for j, value in items.items():
            if value != 0.0:
                indices.append(offset + j)
                values.append(value)
    return SparseWaveletVector(n, depth, filt.name, (indices, values))


class _RetiredTranslationCache:
    """An empty stand-in for the deleted process-wide translation cache,
    kept only for the e2e harness's ``clear()`` / ``stats()`` calls
    (ROADMAP item 11(i) deletes it).  The engine's part memo
    (``ProPolyneEngine._part``) is the one memo of lazy transforms."""

    def clear(self) -> None:
        """Nothing is held."""

    def stats(self) -> dict:
        """No lookups: 0 hits, 0 misses."""
        return {"hits": 0, "misses": 0}


def translation_cache() -> _RetiredTranslationCache:
    """The stand-in (:class:`_RetiredTranslationCache`)."""
    return _RetiredTranslationCache()
