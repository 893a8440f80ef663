"""Properties of the array-native scalar query kernel.

The scalar path is translate axes → ``locate_product`` →
``gather_located`` → dot, on arrays end to end and never on keys.  Each
stage is pinned here against the per-key form it replaced, kept in this
file as the reference:

* ``TensorAllocation.blocks_of`` against the scalar ``block_of``, and
  its bounds/arity errors;
* ``locate_product`` against ``locate`` of the product's keys, and the
  located query against ``translate_query`` + ``locate``, in order and
  bits — with ``locate`` patched out, the exact paths still answer;
* ``translate_query`` against the nested-loop dictionary outer product,
  in entry order and bits (empty queries, standard-basis axes, products
  that underflow to zero);
* ``gather`` — one kernel under every store view — by bitwise-equal
  ``evaluate_exact`` across the live store, the batch evaluator, a
  shared-scan view, an as-of view and the query service, and by the
  ``StorageError`` a payload too short for its block raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.query.batch import BatchEvaluator
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine, translate_query
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService, shared_scan_view
from repro.storage.allocation import (
    TensorAllocation,
    index_tuples,
    product_keys,
    subtree_tiling_allocation,
)
from repro.storage.device import StorageSpec
from repro.wavelets.lazy import cached_range_query_transform
from tests._blocks import block_of

# Size 2 is an axis too small for the db2 cascade (depth 0, standard
# basis).
axis_sizes = st.sampled_from([2, 4, 8, 16, 32])
shapes = st.lists(axis_sizes, min_size=1, max_size=3).map(tuple)
block_sizes = st.sampled_from([2, 3, 7, 15])


def tiling(shape, block_size):
    return TensorAllocation(
        axes=tuple(subtree_tiling_allocation(n, block_size) for n in shape)
    )


class TestBlocksOf:
    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_matches_per_key_block_of(self, shape, block_size, data):
        allocation = tiling(shape, block_size)
        keys = data.draw(st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in shape)), max_size=40,
        ))
        codes = allocation.blocks_of(np.array(keys).reshape(-1, len(shape)))
        assert [allocation.block_tuple(c) for c in codes] == [
            block_of(allocation, key) for key in keys
        ]
        # Codes sort like the id tuples: the sorted read order is kept.
        by_code = [keys[i] for i in np.argsort(codes, kind="stable")]
        assert [block_of(allocation, k) for k in by_code] == sorted(
            block_of(allocation, k) for k in keys
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_out_of_range_keys_raise_storage_error(
        self, shape, block_size, data
    ):
        allocation = tiling(shape, block_size)
        key = list(data.draw(st.tuples(*(st.integers(0, n - 1) for n in shape))))
        axis = data.draw(st.integers(0, len(shape) - 1))
        # -1 would wrap silently under plain table indexing.
        key[axis] = data.draw(st.sampled_from([-1, -shape[axis], shape[axis]]))
        with pytest.raises(StorageError):
            allocation.blocks_of([key])

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, block_size=block_sizes)
    def test_wrong_arity_raises_storage_error(self, shape, block_size):
        allocation = tiling(shape, block_size)
        with pytest.raises(StorageError):
            allocation.blocks_of(np.zeros((3, len(shape) + 1), dtype=int))
        with pytest.raises(StorageError):
            allocation.blocks_of(np.zeros(len(shape) + 2, dtype=int))

    def test_no_keys_is_no_blocks(self):
        allocation = tiling((8, 8), 3)
        assert allocation.blocks_of([]).size == 0
        assert allocation.blocks_of([]).dtype == np.intp

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_distinct_is_the_sorted_dedup(self, shape, block_size, data):
        allocation = tiling(shape, block_size)
        codes = np.array(data.draw(st.lists(
            st.integers(0, allocation.n_codes - 1), max_size=60,
        )), dtype=np.intp)
        assert (
            allocation.distinct(codes).tolist() == np.unique(codes).tolist()
        )


def axis_indices_in(shape):
    """One index list per axis: any order, repeats, possibly empty."""
    return st.tuples(*(
        st.lists(st.integers(0, n - 1), max_size=6) for n in shape
    ))


class TestLocateProduct:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_equals_locate_of_the_product_keys(self, shape, block_size, data):
        # ``shapes`` covers 1-D and the size-2 standard-basis axis; an
        # empty list on any axis is the empty product.
        allocation = tiling(shape, block_size)
        axes = data.draw(axis_indices_in(shape))
        codes, slots = allocation.locate_product(axes)
        want_codes, want_slots = allocation.locate(product_keys(
            [np.asarray(i, dtype=np.intp) for i in axes]
        ))
        assert codes.dtype == slots.dtype == np.intp
        assert codes.tolist() == want_codes.tolist()
        assert slots.tolist() == want_slots.tolist()

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_out_of_range_axis_index_raises_storage_error(
        self, shape, block_size, data
    ):
        allocation = tiling(shape, block_size)
        axes = [list(i) for i in data.draw(axis_indices_in(shape))]
        axis = data.draw(st.integers(0, len(shape) - 1))
        # -1 would wrap silently under plain table indexing.
        axes[axis].append(
            data.draw(st.sampled_from([-1, -shape[axis], shape[axis]]))
        )
        with pytest.raises(StorageError):
            allocation.locate_product(axes)

    def test_wrong_arity_raises_storage_error(self):
        with pytest.raises(StorageError):
            tiling((8, 8), 3).locate_product([[0], [1], [2]])


def reference_translation(query, engine) -> dict:
    """The nested-loop dictionary outer product ``translate_query``
    replaced (its bounds checks aside)."""
    if query.is_empty():
        return {}
    partial = {(): 1.0}
    for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys)):
        if engine.levels[axis] == 0:
            weights = np.polynomial.polynomial.polyval(
                np.arange(lo, hi + 1, dtype=float), np.asarray(poly)
            )
            entries = {
                int(j): float(w)
                for j, w in zip(range(lo, hi + 1), weights) if w != 0.0
            }
        else:
            entries = cached_range_query_transform(
                list(poly), lo, hi, engine.shape[axis],
                wavelet=engine.filter, levels=engine.levels[axis],
            ).entries
        grown = {}
        for prefix, pval in partial.items():
            for idx, qval in entries.items():
                product = pval * qval
                if product != 0.0:
                    grown[prefix + (idx,)] = product
        partial = grown
    return partial


@pytest.fixture(scope="module")
def mixed_engine():
    """16 x 2 x 32: the middle axis is too small for the db2 cascade."""
    cube = np.random.default_rng(12).poisson(3.0, size=(16, 2, 32))
    engine = ProPolyneEngine(
        cube.astype(float), max_degree=1, block_size=7,
        storage=StorageSpec(shards=2),
    )
    assert engine.levels[1] == 0
    yield engine
    engine.store.close()


def ranges_in(shape):
    return st.tuples(*(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) for n in shape
    ))


def polys_for(ndim):
    coefficient = st.sampled_from([0.0, 1.0, -2.5, 1e-200, 3.0])
    return st.tuples(*(
        st.lists(coefficient, min_size=1, max_size=2).map(tuple)
        for _ in range(ndim)
    ))


class TestArrayTranslation:
    @settings(max_examples=60, deadline=None)
    @given(ranges=ranges_in((16, 2, 32)), polys=polys_for(3))
    def test_equals_reference_dict_in_order_and_bits(
        self, mixed_engine, ranges, polys
    ):
        # Ranges with hi < lo are the empty queries; 1e-200 coefficients
        # on two axes make products that underflow to exactly zero.
        query = RangeSumQuery(ranges=ranges, polys=polys)
        expected = reference_translation(query, mixed_engine)
        keys, values = mixed_engine.query_arrays(query)
        assert keys.shape == (len(expected), 3) and keys.dtype == np.intp
        assert index_tuples(keys) == list(expected)
        assert values.tolist() == list(expected.values())
        assert mixed_engine.query_entries(query) == expected
        assert list(mixed_engine.query_entries(query)) == list(expected)

    def test_underflow_products_are_dropped(self, mixed_engine):
        tiny = RangeSumQuery(
            ranges=((2, 9), (0, 1), (5, 20)),
            polys=((1e-200,), (1.0,), (1e-200,)),
        )
        keys, values = mixed_engine.query_arrays(tiny)
        assert len(values) == 0 and keys.shape == (0, 3)
        assert reference_translation(tiny, mixed_engine) == {}
        assert mixed_engine.evaluate_exact(tiny) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(ranges=ranges_in((16, 2, 32)), polys=polys_for(3))
    def test_located_query_is_translate_then_locate(
        self, mixed_engine, ranges, polys
    ):
        # One mask at the end keeps what a mask per axis kept: 1e-200
        # on two axes underflows whole partial products to zero.
        query = RangeSumQuery(ranges=ranges, polys=polys)
        keys, want = mixed_engine.query_arrays(query)
        want_codes, want_slots = mixed_engine.store.allocation.locate(keys)
        values, codes, slots = mixed_engine.query_located(query)
        assert values.tolist() == want.tolist()
        assert codes.tolist() == want_codes.tolist()
        assert slots.tolist() == want_slots.tolist()

    def test_exact_paths_never_build_keys(self, monkeypatch):
        cube = np.random.default_rng(3).poisson(3.0, size=(16, 2, 32))
        engine = ProPolyneEngine(cube.astype(float), max_degree=1)
        queries = [
            RangeSumQuery.count([(0, 9), (0, 1), (2, 13)]),
            RangeSumQuery.weighted([(3, 12), (0, 1), (0, 31)], {0: 1}),
            RangeSumQuery.count([(5, 2), (0, 1), (0, 31)]),  # empty
        ]
        expected = [engine.evaluate_exact(q) for q in queries]
        point = (11, 1, 29)
        cell = RangeSumQuery.count([(p, p) for p in point])

        def no_keys(self, keys):
            raise AssertionError("an exact path located (N, ndim) keys")

        monkeypatch.setattr(TensorAllocation, "locate", no_keys)
        assert [engine.evaluate_exact(q) for q in queries] == expected
        assert BatchEvaluator(engine).evaluate_exact(queries) == expected
        assert engine.insert(point, 2.0) > 0  # a cold cell: nothing memoized
        assert engine.evaluate_exact(cell) == pytest.approx(
            cube[point] + 2.0
        )

    def test_cached_axis_arrays_are_read_only_and_stay_put(self, mixed_engine):
        vector = cached_range_query_transform(
            [1.0], 3, 12, 16, wavelet=mixed_engine.filter,
            levels=mixed_engine.levels[0],
        )
        idx, vals = vector.arrays
        for shared in (idx, vals):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                shared += 1
        held = idx.tolist(), vals.tolist()
        rng = np.random.default_rng(5)
        for _ in range(100):
            lo, hi = sorted(rng.integers(0, 32, size=2).tolist())
            mixed_engine.evaluate_exact(
                RangeSumQuery.count([(3, 12), (0, 1), (lo, hi)])
            )
        again = cached_range_query_transform(
            [1.0], 3, 12, 16, wavelet=mixed_engine.filter,
            levels=mixed_engine.levels[0],
        )
        assert again is vector
        assert (idx.tolist(), vals.tolist()) == held
        assert list(vector.entries) == held[0]

    def test_translate_query_is_what_the_engine_runs(self, mixed_engine):
        query = RangeSumQuery.weighted([(1, 14), (0, 1), (3, 30)], {2: 1})
        direct = translate_query(
            query, mixed_engine.original_shape, mixed_engine.shape,
            mixed_engine.levels, mixed_engine.filter,
        )
        via_engine = mixed_engine.query_arrays(query)
        assert np.array_equal(direct[0], via_engine[0])
        assert direct[1].tolist() == via_engine[1].tolist()


class TestOneGatherUnderEveryView:
    @pytest.fixture(scope="class")
    def versioned(self):
        """An engine with two committed epochs, so the as-of view mixes
        pre-image and live blocks."""
        rng = np.random.default_rng(77)
        engine = ProPolyneEngine(
            rng.poisson(2.0, size=(16, 2, 32)).astype(float),
            max_degree=1, block_size=7, storage=StorageSpec(shards=2),
        )
        engine.enable_versioning()
        inserter = BatchInserter(engine)
        for _ in range(2):
            points = np.column_stack(
                [rng.integers(0, n, size=12) for n in (16, 2, 32)]
            )
            inserter.insert_batch(points, rng.normal(size=12))
        assert engine.epoch == 2
        yield engine
        engine.store.close()

    @settings(max_examples=30, deadline=None)
    @given(ranges=ranges_in((16, 2, 32)), degree_axis=st.integers(-1, 2))
    def test_exact_answers_are_bitwise_equal(
        self, versioned, ranges, degree_axis
    ):
        degrees = {} if degree_axis < 0 else {degree_axis: 1}
        query = RangeSumQuery.weighted(list(ranges), degrees)
        live = versioned.evaluate_exact(query)
        assert BatchEvaluator(versioned).evaluate_exact([query]) == [live]
        assert shared_scan_view(versioned).evaluate_exact(query) == live
        now = versioned.epoch
        assert versioned.evaluate_exact(query, as_of=now) == live
        assert shared_scan_view(versioned).evaluate_exact(
            query, as_of=now
        ) == live
        # A past epoch: the three as-of paths still agree bit for bit.
        past = versioned.evaluate_exact(query, as_of=1)
        assert shared_scan_view(versioned).evaluate_exact(
            query, as_of=1
        ) == past
        assert versioned.evaluate_degradable(query, as_of=1).value == past

    def test_process_pool_is_bitwise_equal(self, mixed_engine):
        # The served path: the in-process worker pool over a
        # shared-scan view, scalar and batch tasks alike.
        queries = [
            RangeSumQuery.count([(0, 9), (0, 1), (2, 13)]),
            RangeSumQuery.weighted([(3, 12), (0, 1), (0, 31)], {0: 1}),
            RangeSumQuery.count([(5, 2), (0, 1), (0, 31)]),  # empty
        ]
        expected = [mixed_engine.evaluate_exact(q) for q in queries]
        with QueryService(mixed_engine, workers=1) as service:
            exact = [
                service.submit_exact(q, block=True).result() for q in queries
            ]
            batch = service.submit_batch(queries, block=True).result()
        assert exact == expected and batch == expected

    def test_list_keys_answer_identically_on_every_view(self, versioned):
        # Regression: SharedScanStore.fetch used list keys unnormalised
        # (TypeError: unhashable) where TensorBlockStore.fetch answered.
        query = RangeSumQuery.count([(2, 11), (0, 1), (4, 27)])
        keys = [list(key) for key in versioned.query_entries(query)]
        live = versioned.store.fetch(keys)
        assert list(live) == [tuple(key) for key in keys]
        shared = shared_scan_view(versioned).store
        assert shared.fetch(keys) == live
        assert versioned.as_of_view(versioned.epoch).store.fetch(keys) == live
        assert shared.blocks_for(keys) == versioned.store.blocks_for(keys)

    def test_fetch_block_is_a_batch_of_one_on_every_view(self, versioned):
        # One scalar entry point, defined once: the very payload object
        # the view's own bulk read hands back, pre-image or live.
        log = versioned.epoch_log
        ids = versioned.store.device.block_ids()
        touched = next(b for b in ids if log.preimage_as_of(b, 0) is not None)
        untouched = next(b for b in ids if log.preimage_as_of(b, 0) is None)
        for view in (
            versioned.store,
            shared_scan_view(versioned).store,
            versioned.as_of_view(1).store,
            shared_scan_view(versioned).as_of_view(0).store,
        ):
            for code in (touched, untouched):
                assert view.fetch_block(code) is (
                    view.fetch_blocks([code])[code]
                )

    def test_missing_coefficient_raises_storage_error(self, mixed_engine):
        # Keys are implicit in a payload's length, so a coefficient can
        # only go missing by the payload coming back short.
        store = mixed_engine.store
        key = (3, 1, 5)
        code = int(store.allocation.blocks_of([key])[0])
        assert store.allocation.block_tuple(code) == block_of(
            store.allocation, key
        )
        payload = store.fetch_block(code)
        store.store_blocks({code: payload[:-1]})
        try:
            for view in (store, shared_scan_view(mixed_engine).store):
                with pytest.raises(StorageError, match=r"holds \d+ values"):
                    view.gather(np.array([key]))
                with pytest.raises(StorageError, match=r"holds \d+ values"):
                    view.fetch([key])
        finally:
            store.store_blocks({code: payload})
        held = payload[store.allocation.locate([key])[1][0]]
        assert store.fetch([key]) == {key: held}
