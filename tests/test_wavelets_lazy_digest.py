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
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import get_filter
from repro.wavelets.lazy import lazy_range_query_transform

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


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_name(*case))
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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {case_name(*case): digest(*case) for case in CASES}, indent=1,
    ) + "\n")
