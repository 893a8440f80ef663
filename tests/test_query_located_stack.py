"""The located kernel's stack, written in place.

:meth:`~repro.query.propolyne.ProPolyneEngine.locate_batch` allocates
the batch's ``values`` / ``codes`` / ``slots`` once and writes each
query's outer combination of its axis parts straight into its own slice.
Held here, byte for byte (dtype included), against the per-query form it
replaced — each query combined on its own, the products concatenated,
one exact-zero mask over the stack — kept below as the reference:

* 1-, 2- and 3-axis engines, on batches that mix empty queries with
  non-empty ones, on a batch of one and on an empty batch;
* a batch that loses products to the exact-zero mask (a degree-1
  measure through 5e-324, whose products underflow to zero);
* parts of length 1 (a one-cell range on a standard-basis axis), first
  and last;
* ``allocation.combine`` without ``out``, the form ``locate_product``
  takes, against the same reference.
"""

import numpy as np
import pytest

from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery


def outer_reference(axis_values) -> np.ndarray:
    """The prefix-major outer product, one axis at a time."""
    values, *rest = axis_values
    for vals in rest:
        values = np.multiply.outer(values, vals).ravel()
    return values


def combine_reference(allocation, located) -> tuple:
    """Codes and slots of the prefix-major product, one axis at a time."""
    (codes, slots, _), *rest = located
    for axis, (virtual, slot, count) in zip(allocation.axes[1:], rest):
        codes = np.add.outer(codes * axis.n_codes, virtual).ravel()
        slots = (np.multiply.outer(slots, count) + slot).ravel()
    return codes, slots


def stack_reference(engine, queries) -> tuple:
    """Each query combined on its own, concatenated, then masked."""
    stacked = [(np.empty(0),) + (np.empty(0, dtype=np.intp),) * 2]
    sizes = []
    for query in queries:
        if query.is_empty():
            sizes.append(0)
            continue
        values, located = zip(*(
            engine._part(axis, lo, hi, poly)
            for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys))
        ))
        stacked.append((outer_reference(values),
                        *combine_reference(engine.store.allocation, located)))
        sizes.append(len(stacked[-1][0]))
    values, codes, slots = map(np.concatenate, zip(*stacked))
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    keep = values != 0.0
    kept = np.concatenate(([0], np.cumsum(keep)))
    return values[keep], codes[keep], slots[keep], kept[offsets]


def assert_same_bytes(got, want) -> None:
    for name, g, w in zip(("values", "codes", "slots", "offsets"), got, want):
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


def engine_of(shape, seed) -> ProPolyneEngine:
    cube = np.random.default_rng(seed).poisson(2.0, shape).astype(float)
    return ProPolyneEngine(cube, max_degree=1, block_size=7)


def random_queries(shape, seed, count=12) -> list[RangeSumQuery]:
    """COUNT and degree-1 queries on random ranges; every third is empty
    (``hi < lo`` on one axis), the first and last among them."""
    rng = np.random.default_rng(seed)
    queries = []
    for i in range(count):
        ranges = []
        for n in shape:
            lo = int(rng.integers(0, n))
            ranges.append((lo, int(rng.integers(lo, n))))
        if i % 3 == 0 or i == count - 1:
            lo, _ = ranges[i % len(shape)]
            ranges[i % len(shape)] = (lo + 1, lo)
        degrees = {i % len(shape): 1} if i % 2 else {}
        queries.append(RangeSumQuery.weighted(ranges, degrees))
    return queries


SHAPES = {"1-axis": (64,), "2-axis": (32, 16), "3-axis": (16, 8, 8)}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
class TestInPlaceStack:
    def test_mixed_batch_matches_the_per_query_form(self, shape):
        engine = engine_of(shape, 5)
        queries = random_queries(shape, 6)
        assert any(q.is_empty() for q in queries)
        assert not all(q.is_empty() for q in queries)
        assert_same_bytes(engine.locate_batch(queries),
                          stack_reference(engine, queries))

    def test_a_batch_of_one(self, shape):
        engine = engine_of(shape, 7)
        for query in random_queries(shape, 8, count=6):
            assert_same_bytes(engine.locate_batch([query]),
                              stack_reference(engine, [query]))

    def test_empty_batches(self, shape):
        engine = engine_of(shape, 9)
        empty = RangeSumQuery.count([(1, 0)] * len(shape))
        for queries in ([], [empty], [empty, empty]):
            assert_same_bytes(engine.locate_batch(queries),
                              stack_reference(engine, queries))


@pytest.mark.parametrize("shape", [(2, 32), (2, 8, 8)], ids=["2-axis", "3-axis"])
def test_products_lost_to_the_exact_zero_mask(shape):
    # A 2-long axis is stored in the standard basis, so its part is the
    # measure itself: ``5e-324 + x`` is 5e-324 at cell 0, whose products
    # with the other axes' coefficients under 0.5 underflow to 0.0 and
    # are masked, and 1.0 at cell 1, whose products all stay.
    engine = engine_of(shape, 10)
    queries = [
        RangeSumQuery(((0, 1),) + q.ranges[1:], ((5e-324, 1.0),) + q.polys[1:])
        for q in random_queries(shape, 11)
    ]
    got = engine.locate_batch(queries)
    assert_same_bytes(got, stack_reference(engine, queries))
    full = sum(
        0 if q.is_empty() else np.prod([
            len(engine._part(axis, lo, hi, poly)[0])
            for axis, ((lo, hi), poly) in enumerate(zip(q.ranges, q.polys))
        ])
        for q in queries
    )
    assert 0 < len(got[0]) < full


def test_parts_of_length_one():
    # A 2-long axis is stored in the standard basis: a one-cell range
    # on it is a part of one entry, first or last in the product.
    for shape in ((2, 16), (16, 2), (2, 8, 2)):
        engine = engine_of(shape, 12)
        assert 0 in engine.levels
        queries = []
        for cell in (0, 1):
            ranges = [(3, 7) if n > 2 else (cell, cell) for n in shape]
            queries += [RangeSumQuery.count(ranges),
                        RangeSumQuery.weighted(ranges, {shape.index(max(shape)): 1})]
        lengths = [len(engine._part(axis, lo, lo, (1.0,))[0])
                   for axis, (lo, _) in enumerate(queries[0].ranges) if shape[axis] == 2]
        assert lengths and set(lengths) == {1}
        assert_same_bytes(engine.locate_batch(queries),
                          stack_reference(engine, queries))


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_combine_without_out_is_the_reference(shape):
    engine = engine_of(shape, 13)
    allocation = engine.store.allocation
    for query in random_queries(shape, 14):
        if query.is_empty():
            continue
        located = [
            engine._part(axis, lo, hi, poly)[1]
            for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys))
        ]
        for got, want in zip(allocation.combine(located),
                             combine_reference(allocation, located)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
