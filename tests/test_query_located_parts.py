"""The located-translation kernel: each distinct axis range is
translated and located once per engine.

:meth:`~repro.query.propolyne.ProPolyneEngine.locate_batch` builds a
query from memoized axis parts ``(axis, (lo, hi), measure)``; a batch is
one stack of their outer combinations under one exact-zero mask.  Held
here:

* the cross-path contract (:mod:`repro.testing.oracle`), computed on a
  workload whose queries share per-axis ranges — a 24-query drill-down
  in ``drilldown_io``'s shape, E12's COUNT/SUM/SUM² trio on one range,
  a two-axis weighted query — and on a one-query workload (a batch of
  one), fault-free and under CRC faults;
* the memo: per engine (two block sizes interleaved, a standard-basis
  axis), keyed on every part input, bounded (eviction changes no
  answer) for an engine and every view of it, and shared by service
  workers without a lock-order cycle;
* the work it saves, counted in ``query.parts.hits`` / ``misses``: a
  24-query drill-down translates its 24 distinct parts, not 48, the
  same batch again translates none, and a group-by translates each
  distinct per-axis range once.
"""

import contextlib
import math
import sys
import threading

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.faults import FaultPlan, RetryPolicy
from repro.lint import lockwatch
from repro.obs import MetricsRegistry, use_registry
from repro.query import propolyne
from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.query.service import QueryService
from repro.storage.device import StorageSpec
from repro.testing import oracle
from repro.wavelets.lazy import lazy_range_query_transform

SHAPE = (32, 32)


def drill_down(x: int, y: int, side: int = 10) -> list[RangeSumQuery]:
    """``drilldown_io``'s batch at 32×32: 24 COUNT windows at offsets
    ``(i % 8, i % 16)`` from ``(x, y)`` — 8 distinct x ranges, 16
    distinct y ranges, and queries 16–23 repeat queries 0–7."""
    return [
        RangeSumQuery.count([
            (x + i % 8, x + i % 8 + side - 1),
            (y + i % 16, y + i % 16 + side - 1),
        ])
        for i in range(24)
    ]


#: E12's drill-down: COUNT, SUM and SUM² of attribute 1 on one range.
TRIO = [RangeSumQuery.weighted([(9, 20), (0, 31)], {1: d}) for d in (0, 1, 2)]
WEIGHTED = RangeSumQuery.weighted([(4, 27), (6, 19)], {0: 1, 1: 1})


def workload(queries, seed: int) -> oracle.Workload:
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.integers(0, n, size=16) for n in SHAPE])
    cube = rng.poisson(3.0, SHAPE).astype(float)
    return oracle.Workload(cube, tuple(queries), points, rng.normal(size=16))


WORKLOADS = {
    "shared": workload(drill_down(2, 3) + TRIO + [WEIGHTED], 35),
    "single": workload([RangeSumQuery.count([(3, 19), (8, 27)])], 36),
}

STACKS = {
    "plain": lambda: StorageSpec(shards=2),
    "crc_faults": lambda: StorageSpec(
        crc=True,
        fault_plan=FaultPlan(seed=17, read_error_rate=0.05, torn_rate=0.05),
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
    ),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_path_keeps_its_bits_on_shared_ranges(name):
    work = WORKLOADS[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(oracle._ENGINE, "max_degree", 2)  # SUM² needs db3
        runs = {stack: oracle.run_stack(work, spec)
                for stack, spec in STACKS.items()}
    for stack in runs:
        oracle.check(work, runs, stack)


def cube() -> np.ndarray:
    return np.random.default_rng(35).poisson(3.0, SHAPE).astype(float)


@contextlib.contextmanager
def part_traffic():
    """Yields a reader of the part memo's ``(misses, hits)`` inside the
    block."""
    with use_registry(MetricsRegistry()) as reg:
        yield lambda: (reg.counter("query.parts.misses").value,
                       reg.counter("query.parts.hits").value)


def assert_exact(engine, queries, answers, data) -> None:
    """``answers`` are ``engine``'s scalar answers, bit for bit, and
    agree with the dense evaluation."""
    for query, answer in zip(queries, answers):
        assert answer.hex() == engine.evaluate_exact(query).hex()
        assert math.isclose(answer, evaluate_on_cube(data, query),
                            rel_tol=1e-9, abs_tol=1e-9)


class TestPartMemo:
    def test_each_engine_answers_from_its_own_parts(self):
        # One cube shape at two block sizes: the same (axis, range,
        # measure) locates to other blocks and slots on each.  A
        # standard-basis axis (2 long) rides along on a third engine.
        data = cube()
        engines = [ProPolyneEngine(data, max_degree=2, block_size=size)
                   for size in (3, 7)]
        flat = np.random.default_rng(5).poisson(3.0, (16, 2, 32)).astype(float)
        mixed = ProPolyneEngine(flat, max_degree=2, block_size=7)
        assert mixed.levels[1] == 0
        mixed_batch = [
            RangeSumQuery.weighted([(1, 14), (0, 1), (3, 30)], {1: 1, 2: 2}),
            RangeSumQuery.count([(0, 15), (1, 1), (9, 9)]),
            RangeSumQuery.weighted([(2, 2), (0, 0), (0, 31)], {1: 2}),
        ]
        batches = [drill_down(0, 0), TRIO + [WEIGHTED], drill_down(5, 6)]
        for batch in batches + batches[::-1]:
            for engine in engines:
                answers = BatchEvaluator(engine).evaluate_exact(batch)
                assert_exact(engine, batch, answers, data)
            answers = BatchEvaluator(mixed).evaluate_exact(mixed_batch)
            assert_exact(mixed, mixed_batch, answers, flat)

    def test_a_part_is_the_uncached_transform_located(self):
        engine = ProPolyneEngine(cube(), max_degree=2, block_size=7)
        for poly in ((1.0,), (0.0, 1.0), (2.0, -1.0, 0.5)):
            vals, located = engine._part(0, 3, 21, poly)
            idx, want = lazy_range_query_transform(
                poly, 3, 21, engine.shape[0], wavelet=engine.filter,
                levels=engine.levels[0],
            ).arrays
            assert vals.tolist() == want.tolist()
            for got, expected in zip(
                located, engine.store.allocation.locate_axis(0, idx)
            ):
                assert got.tolist() == expected.tolist()

    def test_an_error_is_raised_not_memoized(self):
        engine = ProPolyneEngine(cube(), max_degree=1, block_size=7)
        for _ in range(2):
            with pytest.raises(QueryError, match="exceeds domain size"):
                engine._part(0, 3, SHAPE[0], (1.0,))
        assert len(engine._parts) == 0

    def test_a_full_memo_evicts_the_least_recently_used(self, monkeypatch):
        engine = ProPolyneEngine(cube(), max_degree=1, block_size=7)
        monkeypatch.setattr(propolyne, "_MEMO_PARTS", 2)
        a, b, c = ((0, lo, lo + 9, (1.0,)) for lo in range(3))
        kept = engine._part(*a)
        engine._part(*b)
        assert engine._part(*a) is kept  # a is now the most recent
        engine._part(*c)  # evicts b
        assert list(engine._parts) == [a, c]
        assert engine._parts[a] is kept

    def test_the_key_distinguishes_every_part_input(self):
        engine = ProPolyneEngine(cube(), max_degree=1, block_size=7)
        keys = [(0, 2, 13, (1.0,)), (1, 2, 13, (1.0,)), (0, 3, 13, (1.0,)),
                (0, 2, 12, (1.0,)), (0, 2, 13, (0.0, 1.0))]
        with part_traffic() as traffic:
            for key in keys:
                engine._part(*key)
        assert traffic() == (len(keys), 0)
        assert list(engine._parts) == keys

    def test_concurrent_traffic_counts_every_lookup(self):
        engine = ProPolyneEngine(cube(), max_degree=1, block_size=7)
        per_thread, n_threads = 100, 4

        def worker(seed):
            for i in range(per_thread):
                lo = i * (seed + 1) % 16
                engine._part(i % 2, lo, lo + 9, (1.0,))

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(n_threads)]
        with part_traffic() as traffic:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        misses, hits = traffic()
        assert hits + misses == per_thread * n_threads
        distinct = {(i % 2, i * (seed + 1) % 16)
                    for seed in range(n_threads) for i in range(per_thread)}
        # Two workers may both compute one part; the memo keeps one.
        assert misses >= len(engine._parts) == len(distinct)

    def test_a_full_memo_evicts_and_changes_no_answer(self, monkeypatch):
        data = cube()
        roomy, cramped = (ProPolyneEngine(data, max_degree=2, block_size=3)
                          for _ in range(2))
        batches = [drill_down(0, 0), TRIO, drill_down(6, 2), [WEIGHTED]]
        want = [BatchEvaluator(roomy).evaluate_exact(b) for b in batches]
        monkeypatch.setattr(propolyne, "_MEMO_PARTS", 8)
        for _ in range(2):
            for batch, answers in zip(batches, want):
                got = BatchEvaluator(cramped).evaluate_exact(batch)
                assert [a.hex() for a in got] == [a.hex() for a in answers]
                assert len(cramped._parts) <= 8
        assert len(roomy._parts) > 8

    def test_views_share_the_bound(self, monkeypatch):
        # Every as-of query builds a fresh view (``copy.copy``); the
        # views and the live engine hold one memo between them.
        data = cube()
        engine = ProPolyneEngine(data, max_degree=1, block_size=7)
        engine.enable_versioning()
        monkeypatch.setattr(propolyne, "_MEMO_PARTS", 8)
        queries = [RangeSumQuery.count([(k, k + 9), (2 * k, 2 * k + 5)])
                   for k in range(12)]
        for query in queries:
            assert (engine.evaluate_exact(query, as_of=0).hex()
                    == engine.evaluate_exact(query).hex())
            assert len(engine._parts) <= 8
        with QueryService(engine, workers=2) as service:
            service.submit_batch(queries, block=True).result()
        assert len(engine._parts) == 8

    def test_service_workers_share_one_memo(self, monkeypatch):
        # The watcher instruments only locks created while it is on; a
        # short switch interval makes the workers interleave inside
        # ``_part``.
        monkeypatch.setenv(lockwatch.ENV_FLAG, "1")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            data = cube()
            engine = ProPolyneEngine(data, max_degree=1, block_size=7)
            twin = ProPolyneEngine(data, max_degree=1, block_size=7)
            batches = [drill_down(2 * k % 14, k % 7) for k in range(16)]
            with QueryService(engine, workers=4) as service:
                futures = [service.submit_batch(batch, block=True)
                           for batch in batches]
                answers = [future.result(timeout=60) for future in futures]
            for batch, got in zip(batches, answers):
                assert [a.hex() for a in got] == [
                    twin.evaluate_exact(q).hex() for q in batch
                ]
            # One entry per distinct part, however many workers met it.
            assert len(engine._parts) == len({
                (axis, *q.ranges[axis]) for batch in batches for q in batch
                for axis in range(2)
            })
            lockwatch.assert_clean()
        finally:
            sys.setswitchinterval(interval)


def test_a_drill_down_translates_each_distinct_part_once():
    engine = ProPolyneEngine(cube(), max_degree=1, block_size=7)
    evaluator = BatchEvaluator(engine)
    batch = drill_down(2, 3)
    # 48 parts asked for, 8 + 16 of them distinct.
    with part_traffic() as traffic:
        evaluator.evaluate_exact(batch)
    assert traffic() == (8 + 16, 24)
    assert len(engine._parts) == 24
    with part_traffic() as traffic:
        evaluator.evaluate_exact(batch)
    assert traffic() == (0, 48)
    assert len(engine._parts) == 24


class TestGroupByTraffic:
    def test_group_by_misses_once_per_distinct_translation(self):
        # Every cell of a group-by repeats the non-grouped dimensions'
        # parts verbatim: each distinct (axis, lo, hi, degree) part is
        # translated once, and the memo serves the rest.
        from repro.query.batch import group_by

        data = np.random.default_rng(171).poisson(3.0, (32, 16, 16))
        engine = ProPolyneEngine(data.astype(float), max_degree=1,
                                 block_size=7)
        with part_traffic() as traffic:
            result = group_by(
                engine, dim=0, group_width=4,
                other_ranges={1: (3, 12)}, degrees={1: 1},
            )
        misses, hits = traffic()
        distinct = {(0, lo, hi, 0) for lo, hi in result.labels}
        distinct |= {(1, 3, 12, 1), (2, 0, 15, 0)}
        assert len(result.labels) == 8
        assert misses == len(distinct) == len(engine._parts) == 10
        # The independent-read count and the evaluation share one
        # located stack: every cell's three parts are asked for once.
        assert hits == 3 * 8 - misses
