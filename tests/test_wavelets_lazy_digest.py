"""Bitwise history of the lazy wavelet transform.

Operand order sets the last bits of every answer, so the transform's
contract is the exact ``(indices, values)`` pair *in the order it is
emitted*: bands finest to coarsest, then the final approximation.
``lazy_transform_parent.json`` holds one sha256 per (filter, measure,
n, levels) over every ``(lo, hi)`` of the domain; it was recorded by
running this file as a script against the commit before the cascade was
rewritten (``PYTHONPATH=<parent>/src python
tests/test_wavelets_lazy_digest.py``), and re-recorded by this file's
``__main__`` once more, on the tree where every float reduction moved
into ``repro.core.reduce`` (values changed in the last bits; indices
and order did not).

The digests cover filters of under 8 taps only.  ``reference_transform``
is the transform as it was when each level's windows went through one
``repro.core.reduce.dot`` against both channels, kept verbatim; the
property below holds today's transform to its bits and entry order on
every filter from haar to db5 (whose 8- and 10-tap windows take
``dot``'s tree order), every measure degree up to the vanishing moments,
and every cascade depth.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TransformError
from repro.core.reduce import dot
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import WaveletFilter, get_filter
from repro.wavelets.lazy import (
    SparseWaveletVector,
    _horner,
    _through_filter,
    lazy_range_query_transform,
)

FIXTURE = Path(__file__).with_name("lazy_transform_parent.json")

# Degree 1 survives haar's one vanishing moment and degree 2 db2's two,
# so the digests cover the enumerated-interior branch as well.
POLYS = ([1.0], [0.0, 1.0], [2.0, -3.0, 1.0])
CASES = [
    (wavelet, poly, n, shallower)
    for wavelet in ("haar", "db2", "db3")
    for poly in POLYS
    for n in (32, 64, 128)
    for shallower in (0, 1)
]


def case_name(wavelet, poly, n, shallower) -> str:
    return f"{wavelet}|{poly}|{n}|max-{shallower}"


def digest(wavelet, poly, n, shallower) -> str:
    filt = get_filter(wavelet)
    levels = max_levels(n, filt) - shallower
    sha = hashlib.sha256()
    for lo in range(n):
        for hi in range(lo, n):
            indices, values = lazy_range_query_transform(
                poly, lo, hi, n, filt, levels
            ).arrays
            sha.update(len(indices).to_bytes(4, "little"))
            sha.update(indices.astype(np.int64).tobytes())
            sha.update(values.astype(np.float64).tobytes())
    return sha.hexdigest()


# n = 128 is 72 % of the file's time: those 18 cases are marked `slow`,
# which tier-1 deselects and CI's `test` job runs (`-m slow`).
@pytest.mark.parametrize("case", [
    pytest.param(case, id=case_name(*case),
                 marks=pytest.mark.slow if case[2] == 128 else ())
    for case in CASES
])
def test_bits_and_entry_order_are_the_parents(case):
    recorded = json.loads(FIXTURE.read_text())
    assert digest(*case) == recorded[case_name(*case)]


def test_large_domain_allocates_nothing_of_length_n():
    n = 2**14
    filt = get_filter("db2")
    lazy_range_query_transform([1.0], 5, n // 3, n, filt)  # warm caches
    tracemalloc.start()
    try:
        sparse = lazy_range_query_transform([0.0, 1.0], n // 5, n - 7, n, filt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < len(sparse) < 200
    assert peak < 64 * 1024  # one float64 vector of length n is 128 KB


def reference_transform(
    poly: np.ndarray | list[float],
    lo: int,
    hi: int,
    n: int,
    wavelet: str | WaveletFilter = "db2",
    levels: int | None = None,
) -> SparseWaveletVector:
    """``lazy_range_query_transform`` as it was before its windows were
    summed in plain floats, kept verbatim as the reference, with the
    measure-relative drop thresholds the transform has since taken."""
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
    unit = min(1.0, max(map(abs, poly_arr.tolist()))) or 1.0
    bank = np.array([filt.lowpass, filt.highpass])
    orders = range(poly_arr.size)
    low_moments = [filt.moment(s) for s in orders]
    # Below the filter's vanishing moments the detail interior is provably
    # zero — set it so (None) rather than trusting floating point, whose
    # residue the geometrically growing approx coefficients would amplify.
    survives = poly_arr.size > filt.vanishing_moments
    high_moments = [filt.moment(s, True) for s in orders] if survives else None
    # None once the interval has shrunk away.
    coeffs: list[float] | None = poly_arr.tolist()
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
            windows = []
            for k in explicit:
                for j in range(2 * k, 2 * k + taps):
                    if j >= length:
                        j -= length
                    value = corrections.get(j, 0.0)
                    if lo <= j <= hi:  # only when this level set head, rest
                        acc = head
                        for c in rest:
                            acc = c + acc * j
                        value = acc + value
                    windows.append(value)
            channels = dot(np.array(windows).reshape(-1, 1, taps), bank)
            for k, (a_val, d_val) in zip(explicit, channels.tolist()):
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


def ranges(n: int):
    """An empty, one-cell, full-domain, wrap-adjacent or random range."""
    inside = st.integers(0, n - 1)
    return st.one_of(
        st.builds(lambda lo: (lo, lo - 1), inside),
        st.builds(lambda lo: (lo, lo), inside),
        st.just((0, n - 1)),
        st.builds(lambda lo: (lo, n - 1), inside),
        st.builds(lambda hi: (0, hi), inside),
        st.lists(inside, min_size=2, max_size=2).map(sorted).map(tuple),
    )


@st.composite
def transform_args(draw, name: str, degree: int):
    filt = get_filter(name)
    n = draw(st.sampled_from(
        [2**e for e in range(3, 11) if 2**e >= filt.length]
    ))
    lo, hi = draw(ranges(n))
    levels = draw(st.integers(1, max_levels(n, filt)))
    poly = draw(st.lists(
        st.one_of(st.integers(-3, 3).map(float),
                  st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=degree + 1, max_size=degree + 1,
    ))
    return poly, lo, hi, n, filt, levels


@pytest.mark.parametrize("name, degree", [
    (name, degree)
    for name in ("haar", "db2", "db3", "db4", "db5")
    # Every degree below the vanishing moments, and the first one that
    # survives into the detail bands.
    for degree in range(get_filter(name).vanishing_moments + 1)
])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bits_and_entry_order_are_the_reference_transforms(name, degree, data):
    args = data.draw(transform_args(name, degree))
    want_indices, want_values = reference_transform(*args).arrays
    got_indices, got_values = lazy_range_query_transform(*args).arrays
    assert got_indices.tobytes() == want_indices.tobytes()
    assert got_values.tobytes() == want_values.tobytes()


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {case_name(*case): digest(*case) for case in CASES}, indent=1,
    ) + "\n")
