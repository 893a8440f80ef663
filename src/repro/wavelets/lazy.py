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
* an explicit dictionary of boundary "corrections", re-convolved directly
  (only ``O(filter_length)`` of them per level).

The output is a :class:`SparseWaveletVector` whose coefficients match the
dense :func:`repro.wavelets.dwt.wavedec` of the materialized query vector
coefficient-for-coefficient (a property the test suite asserts).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.errors import TransformError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import WaveletFilter, get_filter

__all__ = [
    "SparseWaveletVector",
    "TranslationCache",
    "batched_dot",
    "cached_range_query_transform",
    "lazy_range_query_transform",
    "poly_after_filter",
    "segmented_dot",
    "stack_sparse_queries",
    "translation_cache",
]


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
    degree = poly.size - 1
    positions = np.arange(taps.size, dtype=float)
    moments = [float(np.dot(taps, positions**s)) for s in range(degree + 1)]
    out = np.zeros(degree + 1)
    for t in range(degree + 1):
        acc = 0.0
        for d in range(t, degree + 1):
            acc += poly[d] * math.comb(d, t) * moments[d - t]
        out[t] = (2.0**t) * acc
    return out


def _polyval(poly: np.ndarray | None, x: float) -> float:
    """Evaluate ascending-coefficient polynomial; ``None`` means zero."""
    if poly is None:
        return 0.0
    return float(np.polynomial.polynomial.polyval(x, poly))


def _is_negligible(poly: np.ndarray, scale: float) -> bool:
    """True when every coefficient is numerically zero relative to ``scale``."""
    return bool(np.all(np.abs(poly) <= 1e-12 * max(scale, 1.0)))


@dataclass
class _Symbolic:
    """A length-``n`` vector that is polynomial on an interval, zero
    elsewhere, plus explicit per-index corrections.

    ``value(j) = (P(j) if lo <= j <= hi else 0) + corrections.get(j, 0)``
    """

    n: int
    poly: np.ndarray | None  # ascending coefficients; None == zero interior
    lo: int = 0
    hi: int = -1  # empty interval when hi < lo
    corrections: dict[int, float] = field(default_factory=dict)

    def value(self, j: int) -> float:
        j %= self.n
        base = _polyval(self.poly, float(j)) if self.lo <= j <= self.hi else 0.0
        return base + self.corrections.get(j, 0.0)

    def nonzero_items(self) -> dict[int, float]:
        """All nonzero entries — enumerates the interval, so only call on
        vectors whose interval is empty or that are genuinely sparse."""
        items: dict[int, float] = {}
        if self.poly is not None and self.hi >= self.lo:
            for j in range(self.lo, self.hi + 1):
                items[j] = _polyval(self.poly, float(j))
        for j, delta in self.corrections.items():
            items[j] = items.get(j, 0.0) + delta
        return {j: v for j, v in items.items() if v != 0.0}

    def sparse_items(self) -> dict[int, float]:
        """Nonzero entries assuming a numerically-zero interior polynomial."""
        scale = (
            float(np.max(np.abs(self.poly))) if self.poly is not None else 0.0
        )
        if self.poly is not None and not _is_negligible(self.poly, scale):
            # Interior survived (measure degree >= vanishing moments); fall
            # back to full enumeration for correctness.
            return self.nonzero_items()
        return {j: v for j, v in self.corrections.items() if v != 0.0}


def _cascade_level(
    vec: _Symbolic, filt: WaveletFilter
) -> tuple[_Symbolic, _Symbolic]:
    """Apply one periodized analysis level to a symbolic vector.

    Mirrors ``dwt_level``: ``out[k] = sum_m taps[m] * vec[(2k+m) mod n]``
    for both the low-pass (next approximation) and high-pass (detail)
    channels, touching only O(filter_length + #corrections) positions.
    """
    n = vec.n
    if n % 2 or n < filt.length:
        raise TransformError(
            f"cascade level needs even length >= {filt.length}, got {n}"
        )
    half = n // 2
    taps = filt.length

    has_interval = vec.poly is not None and vec.hi >= vec.lo
    if has_interval:
        interior_lo = (vec.lo + 1) // 2  # ceil(lo / 2)
        interior_hi = (vec.hi - taps + 1) // 2  # floor
        approx_poly = poly_after_filter(vec.poly, filt.lowpass)
        if vec.poly.size - 1 < filt.vanishing_moments:
            # Provably zero by the vanishing-moment identity — set it so
            # rather than trusting floating point, whose residue gets
            # amplified by the geometrically growing approx coefficients.
            detail_poly = None
        else:
            detail_poly = poly_after_filter(vec.poly, filt.highpass)
    else:
        interior_lo, interior_hi = 0, -1
        approx_poly = detail_poly = None

    # Positions needing explicit (windowed) evaluation:
    explicit: set[int] = set()
    if has_interval:
        # Windows that overlap the interval but are not fully interior.
        overlap_lo = max(0, (vec.lo - taps + 1 + 1) // 2 - 1)
        overlap_hi = min(half - 1, vec.hi // 2)
        for k in range(overlap_lo, overlap_hi + 1):
            if not (interior_lo <= k <= interior_hi):
                explicit.add(k)
        # Windows that wrap past n can pick up interval mass near j = 0.
        wrap_start = max(0, (n - taps + 1 + 1) // 2 - 1)
        for k in range(wrap_start, half):
            explicit.add(k)
    # Windows touching a correction.
    for c in vec.corrections:
        for m in range(taps):
            j = (c - m) % n
            if j % 2 == 0:
                explicit.add(j // 2)

    window = np.arange(taps)
    approx = _Symbolic(n=half, poly=approx_poly, lo=interior_lo, hi=interior_hi)
    detail = _Symbolic(n=half, poly=detail_poly, lo=interior_lo, hi=interior_hi)
    scale = (
        float(np.max(np.abs(vec.poly))) if vec.poly is not None else 1.0
    ) + max((abs(v) for v in vec.corrections.values()), default=0.0)
    for k in explicit:
        values = np.array([vec.value(int(j)) for j in (2 * k + window) % n])
        a_val = float(values @ filt.lowpass)
        d_val = float(values @ filt.highpass)
        a_pred = (
            _polyval(approx_poly, float(k))
            if interior_lo <= k <= interior_hi
            else 0.0
        )
        d_pred = (
            _polyval(detail_poly, float(k))
            if interior_lo <= k <= interior_hi
            else 0.0
        )
        tol = 1e-13 * max(scale, 1.0)
        if abs(a_val - a_pred) > tol:
            approx.corrections[k] = a_val - a_pred
        if abs(d_val - d_pred) > tol:
            detail.corrections[k] = d_val - d_pred
    return approx, detail


@dataclass
class SparseWaveletVector:
    """Sparse wavelet-domain vector in the error-tree flat layout.

    Attributes:
        n: Original (signal-domain) length.
        levels: Cascade depth of the decomposition.
        filter_name: Filter used.
        entries: Mapping ``flat_index -> coefficient``; the flat layout is
            the one produced by :meth:`WaveletCoefficients.to_flat` —
            detail band of cascade step ``s`` occupies
            ``flat[n >> s : n >> (s - 1)]`` and the final approximation
            occupies ``flat[0 : n >> levels]``.
    """

    n: int
    levels: int
    filter_name: str
    entries: dict[int, float]

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` in entry order, materialised once per
        vector — valid while ``entries`` is left alone, which memoized
        transforms are (see :func:`cached_range_query_transform`).
        Read-only: every query on a cached range shares them."""
        count = len(self.entries)
        idx = np.fromiter(self.entries.keys(), dtype=np.intp, count=count)
        vals = np.fromiter(self.entries.values(), dtype=float, count=count)
        idx.flags.writeable = vals.flags.writeable = False
        return idx, vals

    def to_dense(self) -> np.ndarray:
        """Materialize the full flat-layout vector (for testing)."""
        dense = np.zeros(self.n)
        for idx, val in self.entries.items():
            dense[idx] = val
        return dense

    def dot(self, flat_data: np.ndarray) -> float:
        """Inner product against a dense flat-layout coefficient vector.

        Vectorized: one ``np.take`` gather of the touched positions and
        one dot product, instead of a Python-level loop over entries.
        """
        if not self.entries:
            return 0.0
        flat_data = np.asarray(flat_data, dtype=float)
        count = len(self.entries)
        idx = np.fromiter(self.entries.keys(), dtype=np.intp, count=count)
        vals = np.fromiter(self.entries.values(), dtype=float, count=count)
        return float(np.take(flat_data, idx) @ vals)

    def by_magnitude(self) -> list[tuple[int, float]]:
        """Entries sorted by decreasing absolute value — the progressive
        evaluation order (biggest query coefficients first)."""
        return sorted(self.entries.items(), key=lambda kv: -abs(kv[1]))

    def norm(self) -> float:
        """L2 norm of the sparse vector."""
        return math.sqrt(sum(v * v for v in self.entries.values()))


def stack_sparse_queries(
    sparse_entries: list[dict],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate sparse query vectors into one index/value matrix.

    The batch extension of :meth:`SparseWaveletVector.dot`: the sparse
    vectors are stacked CSR-style — ``indices``/``values`` hold every
    vector's entries back to back (each vector keeping its own entry
    order), and ``offsets[i]:offsets[i+1]`` delimits vector ``i``'s
    segment.  One ``np.take`` over ``indices`` then gathers the data for
    the *whole batch*, and each row's answer is a dot over its segment.

    Args:
        sparse_entries: One ``{flat_index: value}`` mapping per query
            vector (empty mappings allowed — they occupy zero-width
            segments and answer ``0.0``).

    Returns:
        ``(indices, values, offsets)`` with ``len(offsets) ==
        len(sparse_entries) + 1``.
    """
    counts = [len(entries) for entries in sparse_entries]
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    indices = np.empty(total, dtype=np.intp)
    values = np.empty(total, dtype=float)
    for i, entries in enumerate(sparse_entries):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        indices[lo:hi] = np.fromiter(
            entries.keys(), dtype=np.intp, count=hi - lo
        )
        values[lo:hi] = np.fromiter(
            entries.values(), dtype=float, count=hi - lo
        )
    return indices, values, offsets


def batched_dot(
    sparse_entries: list[dict], flat_data: np.ndarray
) -> np.ndarray:
    """Inner products of several sparse vectors against one dense vector.

    Performs a *single* gather for the whole batch, then reduces each
    vector's segment with the same ``np.dot`` the scalar
    :meth:`SparseWaveletVector.dot` uses — segments are contiguous and
    unpadded, so every answer is bitwise-identical to evaluating that
    vector alone (zero-padding rows to a rectangular matrix would
    change each dot's reduction tree and break bitwise equality).
    """
    indices, values, offsets = stack_sparse_queries(sparse_entries)
    return segmented_dot(indices, values, offsets, flat_data)


def segmented_dot(
    indices: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    flat_data: np.ndarray,
) -> np.ndarray:
    """Segment-wise sparse inner products after one shared gather.

    The low-level kernel under :func:`batched_dot` (and the tensor-domain
    batch evaluator): ``np.take`` gathers every segment's data positions
    at once, then segment ``i`` reduces with ``np.dot`` over its
    contiguous, unpadded slice — the same reduction a lone
    :meth:`SparseWaveletVector.dot` performs, hence bitwise-equal
    per-query answers.
    """
    flat_data = np.asarray(flat_data, dtype=float)
    gathered = np.take(flat_data, indices)
    out = np.empty(len(offsets) - 1)
    for i in range(len(offsets) - 1):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        out[i] = np.dot(values[lo:hi], gathered[lo:hi])
    return out


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
        raise TransformError(
            f"range [{lo}, {hi}] outside domain [0, {n - 1}]"
        )
    depth = max_levels(n, filt) if levels is None else levels
    if depth > max_levels(n, filt):
        raise TransformError(
            f"cannot run {depth} levels on length {n} with "
            f"{filt.length}-tap filter"
        )

    poly_arr = np.asarray(poly, dtype=float)
    if poly_arr.ndim != 1 or poly_arr.size == 0:
        raise TransformError("measure polynomial must be a 1-D coefficient list")

    if hi < lo:
        return SparseWaveletVector(
            n=n, levels=depth, filter_name=filt.name, entries={}
        )

    vec = _Symbolic(n=n, poly=poly_arr.copy(), lo=lo, hi=hi)
    entries: dict[int, float] = {}
    current_len = n
    for _ in range(depth):
        vec, detail = _cascade_level(vec, filt)
        band_lo = current_len // 2  # flat offset: n >> s for this step
        for pos, val in detail.sparse_items().items():
            entries[band_lo + pos] = val
        current_len //= 2
    for pos, val in vec.sparse_items().items():
        entries[pos] = val
    return SparseWaveletVector(
        n=n, levels=depth, filter_name=filt.name, entries=entries
    )


class TranslationCache:
    """Thread-safe LRU memo of per-dimension query transforms.

    Group-by and drill-down workloads repeat the same per-dimension
    range transforms constantly (every cell of a group-by shares the
    non-grouped dimensions verbatim), so memoizing
    :func:`lazy_range_query_transform` drops hot-workload translation
    cost to a dictionary lookup.  Keys are
    ``(poly coeffs, lo, hi, n, filter name, levels)`` — everything the
    transform depends on; cached :class:`SparseWaveletVector` values are
    shared between callers and must be treated as immutable.

    Hit/miss/eviction traffic is reported both on the instance (``hits``
    / ``misses`` attributes, immune to registry resets) and through
    ``repro.obs`` as ``wavelets.transcache.hits`` / ``.misses`` /
    ``.evictions`` counters and a ``wavelets.transcache.size`` gauge.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise TransformError(
                f"translation cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = watched_lock("wavelets.transcache")
        self._entries: OrderedDict[tuple, SparseWaveletVector] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, key: tuple) -> SparseWaveletVector | None:
        """The cached transform under ``key``, bumping LRU order, or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if value is not None:
            obs_counter("wavelets.transcache.hits").inc()
        return value

    def store(self, key: tuple, value: SparseWaveletVector) -> None:
        """Record a freshly computed transform (counted as a miss)."""
        evicted = 0
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            size = len(self._entries)
        obs_counter("wavelets.transcache.misses").inc()
        if evicted:
            obs_counter("wavelets.transcache.evictions").inc(evicted)
        obs_gauge("wavelets.transcache.size").set(size)

    def clear(self) -> None:
        """Drop every memoized transform (statistics are kept)."""
        with self._lock:
            self._entries.clear()
        obs_gauge("wavelets.transcache.size").set(0)

    def reset_stats(self) -> None:
        """Zero the instance-local hit/miss/eviction tallies."""
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        """Snapshot: hits, misses, evictions, size, capacity, hit_rate."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hit_rate": (
                    self.hits / (self.hits + self.misses)
                    if (self.hits + self.misses)
                    else 0.0
                ),
            }


_translation_cache = TranslationCache()


def translation_cache() -> TranslationCache:
    """The process-wide translation cache (shared by every engine)."""
    return _translation_cache


def cached_range_query_transform(
    poly: np.ndarray | list[float],
    lo: int,
    hi: int,
    n: int,
    wavelet: str | WaveletFilter = "db2",
    levels: int | None = None,
) -> SparseWaveletVector:
    """Memoized :func:`lazy_range_query_transform`.

    Same contract as the uncached transform; the returned vector may be
    shared with other callers, so its ``entries`` must not be mutated.
    Concurrent misses on the same key may compute the transform twice
    (the memo is filled outside the lock to keep lookups cheap) — both
    computations are deterministic, so either result is correct.
    """
    filt = wavelet if isinstance(wavelet, WaveletFilter) else get_filter(wavelet)
    poly_arr = np.asarray(poly, dtype=float)
    if poly_arr.ndim != 1 or poly_arr.size == 0:
        # Malformed measure: let the uncached path raise its usual error.
        return lazy_range_query_transform(
            poly, lo, hi, n, wavelet=filt, levels=levels
        )
    depth = max_levels(n, filt) if levels is None else levels
    key = (
        tuple(float(c) for c in poly_arr),
        int(lo),
        int(hi),
        int(n),
        filt.name,
        int(depth),
    )
    cached = _translation_cache.lookup(key)
    if cached is not None:
        return cached
    value = lazy_range_query_transform(
        poly, lo, hi, n, wavelet=filt, levels=levels
    )
    _translation_cache.store(key, value)
    return value
