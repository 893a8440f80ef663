"""The translation cache and the vectorized sparse dot product.

The cache memoizes per-dimension ``lazy_range_query_transform`` results
(group-by / drill-down workloads repeat dimension transforms constantly);
correctness requires cached and uncached transforms to be identical, and
the memo to be keyed on *everything* the transform depends on.
"""

import threading

import numpy as np
import pytest

from repro.core.errors import TransformError
from repro.wavelets.lazy import (
    SparseWaveletVector,
    TranslationCache,
    cached_range_query_transform,
    lazy_range_query_transform,
    translation_cache,
)


@pytest.fixture(autouse=True)
def pristine_cache():
    """Each test sees an empty process-wide cache with zeroed stats."""
    cache = translation_cache()
    cache.clear()
    cache.reset_stats()
    yield cache
    cache.clear()
    cache.reset_stats()


class TestCachedTransform:
    def test_cached_equals_uncached(self):
        for poly in ([1.0], [0.0, 1.0], [2.0, -1.0, 0.5]):
            direct = lazy_range_query_transform(
                poly, 3, 21, 32, wavelet="db2"
            )
            cached = cached_range_query_transform(
                poly, 3, 21, 32, wavelet="db2"
            )
            assert cached.entries == direct.entries
            assert cached.n == direct.n and cached.levels == direct.levels

    def test_repeat_lookup_hits_and_shares_the_vector(self, pristine_cache):
        first = cached_range_query_transform([1.0], 2, 13, 16)
        second = cached_range_query_transform([1.0], 2, 13, 16)
        assert second is first  # memo returns the shared vector
        stats = pristine_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_key_distinguishes_every_transform_input(self, pristine_cache):
        base = dict(poly=[1.0], lo=2, hi=13, n=16, wavelet="db2", levels=None)
        cached_range_query_transform(**base)
        variants = [
            dict(base, poly=[0.0, 1.0]),
            dict(base, lo=3),
            dict(base, hi=12),
            dict(base, n=32),
            dict(base, wavelet="haar"),
            dict(base, levels=1),
        ]
        for kwargs in variants:
            cached_range_query_transform(**kwargs)
        stats = pristine_cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 1 + len(variants)

    def test_error_paths_stay_uncached_errors(self):
        with pytest.raises(TransformError):
            cached_range_query_transform([1.0], -1, 5, 16)
        with pytest.raises(TransformError):
            cached_range_query_transform([], 0, 5, 16)


class TestTranslationCacheLRU:
    def test_capacity_evicts_least_recently_used(self):
        cache = TranslationCache(capacity=2)
        vecs = {
            k: SparseWaveletVector(8, 3, "db2", {k: 1.0}) for k in range(3)
        }
        cache.store(("a",), vecs[0])
        cache.store(("b",), vecs[1])
        assert cache.lookup(("a",)) is vecs[0]  # refresh 'a'
        cache.store(("c",), vecs[2])  # evicts 'b'
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) is vecs[0]
        assert cache.lookup(("c",)) is vecs[2]
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(TransformError):
            TranslationCache(capacity=0)

    def test_hit_rate_and_clear(self):
        cache = TranslationCache(capacity=4)
        vec = SparseWaveletVector(8, 3, "db2", {0: 1.0})
        cache.store(("k",), vec)
        cache.lookup(("k",))
        assert cache.hit_rate == 0.5
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(("k",)) is None  # entries gone, stats kept
        assert cache.hits == 1

    def test_concurrent_mixed_traffic_is_consistent(self):
        cache = TranslationCache(capacity=16)
        per_thread, n_threads = 200, 6

        def worker(seed):
            def run():
                for i in range(per_thread):
                    key = ("k", (i * (seed + 1)) % 32)
                    if cache.lookup(key) is None:
                        cache.store(
                            key, SparseWaveletVector(8, 3, "db2", {0: 1.0})
                        )
            return run

        threads = [
            threading.Thread(target=worker(s)) for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits + cache.misses == per_thread * n_threads
        assert len(cache) <= 16


class TestGroupByTraffic:
    def test_group_by_misses_once_per_distinct_translation(
        self, pristine_cache
    ):
        # Every cell of a group-by repeats the non-grouped dimensions'
        # transforms verbatim: each distinct (axis, lo, hi, degree)
        # translation is computed once, and the engine's located parts
        # serve the rest before the cache is asked again.
        from repro.query.batch import group_by
        from repro.query.propolyne import ProPolyneEngine

        cube = np.random.default_rng(171).poisson(3.0, (32, 16, 16))
        engine = ProPolyneEngine(
            cube.astype(float), max_degree=1, block_size=7
        )
        result = group_by(
            engine, dim=0, group_width=4,
            other_ranges={1: (3, 12)}, degrees={1: 1},
        )
        distinct = {(0, lo, hi, 0) for lo, hi in result.labels}
        distinct |= {(1, 3, 12, 1), (2, 0, 15, 0)}
        assert len(result.labels) == 8
        stats = pristine_cache.stats()
        assert stats["misses"] == len(distinct) == 10
        assert stats["hits"] == 0
        assert len(engine._parts) == len(distinct)


class TestVectorizedDot:
    def test_dot_matches_python_loop_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = 64
            size = int(rng.integers(1, 20))
            idx = rng.choice(n, size=size, replace=False)
            vec = SparseWaveletVector(
                n=n, levels=3, filter_name="db2",
                entries={int(i): float(v) for i, v in
                         zip(idx, rng.normal(size=size))},
            )
            data = rng.normal(size=n)
            reference = sum(
                val * data[i] for i, val in vec.entries.items()
            )
            assert vec.dot(data) == pytest.approx(reference, rel=1e-12)

    def test_dot_of_empty_vector_is_zero(self):
        vec = SparseWaveletVector(8, 3, "db2", {})
        assert vec.dot(np.ones(8)) == 0.0

    def test_dot_on_real_transform(self):
        # End-to-end: the sparse transform dotted with dense coefficients
        # equals the dense range-sum it encodes.
        from repro.wavelets.dwt import wavedec

        rng = np.random.default_rng(7)
        signal = rng.normal(size=32)
        coeffs = wavedec(signal, "db2")
        sparse = lazy_range_query_transform([1.0], 5, 20, 32, wavelet="db2")
        assert sparse.dot(coeffs.to_flat()) == pytest.approx(
            float(np.sum(signal[5:21])), rel=1e-9
        )
