"""The concurrent query service: correctness under concurrency,
shared reads in the store's block cache, and admission control.

The load-bearing property: results produced by ``QueryService`` with any
worker count are *bitwise-equal* to single-threaded evaluation on the
same engine — translation, planning and summation are deterministic, and
the service only reads through the storage layer.
"""

import sys
import threading
import time
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest

from repro.core.errors import QueryError, StorageError
from repro.obs import MetricsRegistry, use_registry
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryRejected, QueryService
from repro.storage.device import CachingDevice, StorageSpec
from repro.storage.disk import BlockGroup
from repro.storage.latency import LatencyModel
from tests._blocks import read_map


def build_engine(shape=(32, 32), pool_capacity=16, seed=7, latency_s=0.0):
    rng = np.random.default_rng(seed)
    cube = rng.poisson(3.0, shape).astype(float)
    storage = StorageSpec(
        cache_blocks=pool_capacity,
        latency=LatencyModel(base_s=latency_s) if latency_s else None,
    )
    return ProPolyneEngine(cube, max_degree=1, storage=storage)


def mixed_workload(engine, count=24, seed=11):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        lo1 = int(rng.integers(0, 20))
        lo2 = int(rng.integers(0, 20))
        queries.append(
            RangeSumQuery.count(
                [(lo1, lo1 + int(rng.integers(2, 12))),
                 (lo2, lo2 + int(rng.integers(2, 12)))]
            )
        )
    return queries


class TestConcurrentCorrectness:
    def test_exact_results_bitwise_equal_to_single_threaded(self):
        engine = build_engine()
        queries = mixed_workload(engine)
        expected = [engine.evaluate_exact(q) for q in queries]
        with QueryService(engine, workers=4, queue_depth=64) as service:
            got = service.run_exact(queries)
        assert got == expected  # float equality, not approx

    def test_progressive_streams_bitwise_equal_to_single_threaded(self):
        engine = build_engine()
        queries = mixed_workload(engine, count=8)
        expected = [list(engine.evaluate_progressive(q)) for q in queries]
        with QueryService(engine, workers=4, queue_depth=64) as service:
            streams = [
                service.submit_progressive(q, block=True) for q in queries
            ]
            got = [list(s) for s in streams]
        assert got == expected
        for stream, estimates in zip(streams, got):
            assert stream.result() == estimates[-1]

    def test_stress_many_threads_submitting_concurrently(self):
        # >= 4 workers, plus several *submitting* threads, all racing on
        # one engine: every answer must match the serial reference.
        engine = build_engine(shape=(64, 32), pool_capacity=8)
        queries = mixed_workload(engine, count=40, seed=3)
        expected = {q: engine.evaluate_exact(q) for q in queries}
        failures = []
        with QueryService(engine, workers=6, queue_depth=128) as service:
            def hammer(chunk):
                try:
                    futures = [
                        service.submit_exact(q, block=True) for q in chunk
                    ]
                    for q, f in zip(chunk, futures):
                        if f.result(timeout=60) != expected[q]:
                            failures.append(q)
                except Exception as exc:  # surface in the main thread
                    failures.append(exc)

            submitters = [
                threading.Thread(target=hammer, args=(queries[i::4],))
                for i in range(4)
            ]
            for t in submitters:
                t.start()
            for t in submitters:
                t.join()
        assert failures == []

    def test_mixed_exact_and_progressive_traffic(self):
        engine = build_engine()
        queries = mixed_workload(engine, count=12, seed=5)
        exact_expected = [engine.evaluate_exact(q) for q in queries]
        with QueryService(engine, workers=4, queue_depth=64) as service:
            futures = [service.submit_exact(q, block=True) for q in queries]
            streams = [
                service.submit_progressive(q, block=True)
                for q in queries[:4]
            ]
            finals = [s.result(timeout=60) for s in streams]
            got = [f.result(timeout=60) for f in futures]
        assert got == exact_expected
        for final, q in zip(finals, queries[:4]):
            assert final.error_bound == pytest.approx(0.0, abs=1e-6)
            assert final.estimate == pytest.approx(engine.evaluate_exact(q))


class TestSharedScans:
    """Concurrent misses on one block ride one read in the store's
    cache (single flight); a later read of it is a hit."""

    def concurrent_reads(self, engine, readers):
        code = engine.store.device.block_ids()[0]
        barrier = threading.Barrier(readers)
        results = []

        def read():
            barrier.wait()
            results.append(read_map(engine.store, [code])[code])

        threads = [threading.Thread(target=read) for _ in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)  # a reader waiting on itself fails, not hangs
        assert not any(t.is_alive() for t in threads)
        return results

    def test_single_flight_deduplicates_concurrent_reads(self):
        # Slow the device down so readers genuinely overlap.
        engine = build_engine(latency_s=0.005)
        before = engine.store.io_snapshot()
        results = self.concurrent_reads(engine, 8)
        stats = engine.store.cache.pool_stats
        assert len(results) == 8
        # One stored payload: leaders and followers alike get the
        # object itself, and so its values.
        assert all(r is results[0] for r in results)
        assert engine.store.io_since(before).reads == 1
        assert stats.misses == 1
        assert stats.hits + stats.shared == 7
        assert stats.shared >= 1  # at least one piggy-backed read

    def test_followers_share_an_immutable_payload(self):
        engine = build_engine(latency_s=0.005)
        results = self.concurrent_reads(engine, 4)
        # Followers receive the leader's payload itself, which nobody
        # can mutate.
        assert len(results) == 4
        assert not any(r.flags.writeable for r in results)
        assert all(np.array_equal(r, results[0]) for r in results)

    def test_cached_store_matches_plain_store(self):
        engine = build_engine()
        plain = build_engine(pool_capacity=None)
        with QueryService(engine, workers=4) as service:
            for query in mixed_workload(engine, count=6, seed=13):
                exact = service.submit_exact(query).result(timeout=30)
                assert exact == plain.evaluate_exact(query)
                stream = service.submit_progressive(query)
                assert list(stream) == list(plain.evaluate_progressive(query))

    def test_scan_error_propagates_to_all_waiters(self):
        engine = build_engine()
        with pytest.raises(Exception):
            engine.store.read_many([999_999])  # no such block
        assert engine.store.cache._inflight == {}  # flight always cleaned up

    @pytest.mark.parametrize("leader_fails", [False, True])
    def test_overlapping_batches_share_the_overlap(self, leader_fails):
        class GatedStore:
            """Holds the first bulk read open until the test releases it."""

            def __init__(self):
                self.calls = []
                self.first_entered = threading.Event()
                self.second_entered = threading.Event()
                self.release = threading.Event()

            def read_many(self, codes):
                self.calls.append(codes.tolist())
                if len(self.calls) > 1:
                    self.second_entered.set()
                else:
                    self.first_entered.set()
                    assert self.release.wait(30)
                    if leader_fails:
                        raise StorageError("leader's read failed")
                return BlockGroup(
                    codes, [np.array([float(b)]) for b in codes],
                    np.ones(len(codes), dtype=np.intp),
                )

        store = GatedStore()
        cache = CachingDevice(store, capacity=16)
        outcomes = {}

        def ask(name, codes):
            def run():
                try:
                    outcomes[name] = read_map(cache, codes)
                except StorageError as exc:
                    outcomes[name] = exc
            return threading.Thread(target=run)

        first, second = ask("first", [1, 2, 3]), ask("second", [2, 3, 4])
        first.start()
        assert store.first_entered.wait(30)
        second.start()
        # The second batch leads only the block nobody is reading, and
        # by then has joined the first batch's flight for 2 and 3.
        assert store.second_entered.wait(30)
        store.release.set()
        first.join(30)
        second.join(30)
        assert not first.is_alive() and not second.is_alive()
        assert store.calls == [[1, 2, 3], [4]]
        assert cache._inflight == {}
        stats = cache.pool_stats
        if leader_fails:
            # The leader's failure reaches its waiter — the same error;
            # only the waiter's own block 4 was read.
            assert isinstance(outcomes["first"], StorageError)
            assert outcomes["second"] is outcomes["first"]
            assert (stats.misses, stats.shared) == (1, 0)
        else:
            assert sorted(outcomes["first"]) == [1, 2, 3]
            assert sorted(outcomes["second"]) == [2, 3, 4]
            for shared in (2, 3):  # one read, one payload object
                assert outcomes["second"][shared] is outcomes["first"][shared]
            assert (stats.misses, stats.shared) == (4, 2)

    def test_scalar_query_issues_one_coalesced_store_read(self, monkeypatch):
        engine = build_engine()
        query = mixed_workload(engine, count=1, seed=19)[0]
        expected = build_engine(pool_capacity=None).evaluate_exact(query)
        below = engine.store.cache.inner
        calls = []
        read_many = below.read_many
        monkeypatch.setattr(
            below, "read_many",
            lambda codes: calls.append(codes.tolist()) or read_many(codes),
        )
        with QueryService(engine, workers=2) as service:
            assert service.submit_exact(query).result(timeout=30) == expected
            stats = service.scan_stats()
        (ids,) = calls
        assert set(ids) == engine.store.blocks_for(
            engine.query_arrays(query)[0]
        )
        assert stats == {"fetches": len(ids), "shared": 0}


class TestAdmissionControl:
    def test_overload_rejects_instead_of_queueing_unboundedly(self):
        engine = build_engine(latency_s=0.02)  # keep workers busy
        queries = mixed_workload(engine, count=50, seed=17)
        service = QueryService(engine, workers=1, queue_depth=2)
        try:
            rejected = 0
            futures = []
            for q in queries:
                try:
                    futures.append(service.submit_exact(q))
                except QueryRejected:
                    rejected += 1
            assert rejected > 0
            assert service.rejected == rejected
            # Admitted queries still finish correctly.
            for f in futures:
                assert isinstance(f.result(timeout=120), float)
        finally:
            service.close()

    def test_closed_service_refuses_new_work(self):
        engine = build_engine()
        service = QueryService(engine, workers=1)
        service.close()
        with pytest.raises(QueryError):
            service.submit_exact(RangeSumQuery.count([(0, 3), (0, 3)]))

    @pytest.mark.parametrize("wait", [True, False])
    @pytest.mark.parametrize("block", [False, True])
    def test_submission_racing_close_fails_instead_of_hanging(
        self, block, wait
    ):
        # Submitting threads race close(): each submission either raises
        # "closed" at submit or is admitted, and every admitted task is
        # served by the draining workers; none is left pending.
        engine = build_engine()
        query = RangeSumQuery.count([(0, 3), (0, 3)])
        expected = engine.evaluate_exact(query)
        service = QueryService(engine, workers=2, queue_depth=4)
        admitted, closed = [], []

        def submit():
            while True:
                try:
                    admitted.append(service.submit_exact(query, block=block))
                except QueryRejected:
                    continue
                except QueryError as exc:
                    closed.append(exc)
                    return

        submitters = [threading.Thread(target=submit) for _ in range(4)]
        for t in submitters:
            t.start()
        deadline = time.monotonic() + 30
        while len(admitted) < 40 and time.monotonic() < deadline:
            time.sleep(0.001)
        service.close(wait=wait)
        for t in submitters:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in submitters)
        assert len(closed) == 4
        assert all("closed" in str(exc) for exc in closed)
        # wait() does not help: only the workers can resolve these.
        done, pending = futures_wait(admitted, timeout=30)
        assert not pending and len(admitted) >= 40
        assert all(f.result() == expected for f in done)
        assert not service._pending

    def test_invalid_configuration_rejected(self):
        engine = build_engine()
        with pytest.raises(QueryError):
            QueryService(engine, workers=0)
        with pytest.raises(QueryError):
            QueryService(engine, queue_depth=0)

    def test_query_error_delivered_through_future(self):
        engine = build_engine()
        bad = RangeSumQuery.count([(0, 500), (0, 3)])  # out of domain
        with QueryService(engine, workers=2) as service:
            future = service.submit_exact(bad, block=True)
            with pytest.raises(QueryError):
                future.result(timeout=60)
            stream = service.submit_progressive(bad, block=True)
            with pytest.raises(QueryError):
                list(stream)


class TestLatencyHistogram:
    def test_latency_runs_from_admission_so_queue_wait_counts(self):
        hold_s = 0.05
        query = RangeSumQuery.count([(0, 3), (0, 3)])
        started, release = threading.Event(), threading.Event()
        with use_registry(MetricsRegistry()) as registry:
            with QueryService(build_engine(), workers=1) as service:
                evaluate = service.engine.evaluate_exact

                def held(q, as_of=None):
                    started.set()
                    release.wait(timeout=60)
                    return evaluate(q, as_of=as_of)

                service.engine.evaluate_exact = held
                first = service.submit_exact(query)
                assert started.wait(timeout=60)
                # The one worker is held on the first task; the second
                # spends hold_s in the queue behind it.
                second = service.submit_exact(query)
                time.sleep(hold_s)
                release.set()
                assert first.result(timeout=60) == second.result(timeout=60)
            latency = registry.histogram("query.service.latency.seconds")
        assert latency.count == 2
        assert latency.min >= hold_s
        assert latency.total >= 2 * hold_s


class TestHelpingJoin:
    """A caller blocked on a task no thread has claimed runs it itself."""

    def test_a_caller_runs_its_task_while_every_worker_is_held(self):
        engine = build_engine()
        query = mixed_workload(engine, count=1)[0]
        expected = engine.evaluate_exact(query)
        held, release = threading.Barrier(3), threading.Event()
        with QueryService(engine, workers=2) as service:
            evaluate = service.engine.evaluate_exact

            def gated(q, as_of=None):
                if threading.current_thread().name.startswith("query-"):
                    held.wait(timeout=60)
                    release.wait(timeout=60)
                return evaluate(q, as_of=as_of)

            service.engine.evaluate_exact = gated
            blockers = [service.submit_exact(query) for _ in range(2)]
            held.wait(timeout=60)  # both workers are inside a task
            try:
                got = service.submit_exact(query).result(timeout=2)
            finally:
                release.set()
            assert got.hex() == expected.hex()
            assert [f.result(timeout=60) for f in blockers] == [expected] * 2

    def test_sequential_waits_on_a_depth_one_queue_are_never_rejected(self):
        # Each result() claims or waits out its task, so the next
        # submission always finds the one unclaimed slot free.
        engine = build_engine()
        query = mixed_workload(engine, count=1)[0]
        expected = engine.evaluate_exact(query)
        with QueryService(engine, workers=2, queue_depth=1) as service:
            for _ in range(3000):
                assert service.submit_exact(query).result() == expected
            assert service.rejected == 0

    def test_a_helper_and_a_worker_claim_each_task_once(self):
        # Four waiting clients against four workers on two cores, with
        # thread switches forced often: every task is served exactly
        # once, whichever side claims it, and both sides win some.
        engine = build_engine()
        query = mixed_workload(engine, count=1)[0]
        expected = engine.evaluate_exact(query)
        served, failures = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(engine, workers=4, queue_depth=8) as service:
                serve = service._serve

                def counting(task):
                    served.append((task, threading.current_thread().name))
                    serve(task)

                service._serve = counting

                def client(k):
                    try:
                        for i in range(100):
                            future = service.submit_exact(query, block=True)
                            if (i + k) % 2:  # let a worker claim it first
                                time.sleep(0.0005)
                            if future.result(timeout=60) != expected:
                                failures.append(i)
                    except Exception as exc:  # surface in the main thread
                        failures.append(exc)

                clients = [
                    threading.Thread(target=client, args=(k,))
                    for k in range(4)
                ]
                for t in clients:
                    t.start()
                for t in clients:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in clients)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        tasks = [task for task, _ in served]
        assert len(tasks) == 400 and len({id(t) for t in tasks}) == 400
        assert service.completed == 400
        runners = {name.startswith("query-") for _, name in served}
        assert runners == {True, False}

    def test_a_progressive_stream_is_produced_by_a_worker(self):
        engine = build_engine()
        query = mixed_workload(engine, count=1)[0]
        expected = list(engine.evaluate_progressive(query))
        producers = []
        with QueryService(engine, workers=1) as service:
            progressive = service.engine.evaluate_progressive

            def recording(q):
                producers.append(threading.current_thread().name)
                return progressive(q)

            service.engine.evaluate_progressive = recording
            stream = service.submit_progressive(query)
            assert stream.result(timeout=60) == expected[-1]
            assert list(stream) == expected
        assert producers == ["query-service-0"]
