"""The concurrent query service: correctness under concurrency,
shared-scan deduplication, and admission control.

The load-bearing property: results produced by ``QueryService`` with any
worker count are *bitwise-equal* to single-threaded evaluation on the
same engine — translation, planning and summation are deterministic, and
the service only reads through the storage layer.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.errors import QueryError, StorageError
from repro.obs import MetricsRegistry, use_registry
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import (
    QueryRejected,
    QueryService,
    ScanCoordinator,
    shared_scan_view,
)
from repro.storage.device import StorageSpec
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
    def test_single_flight_deduplicates_concurrent_reads(self):
        # Slow the device down so readers genuinely overlap.
        engine = build_engine(pool_capacity=None, latency_s=0.005)
        coordinator = ScanCoordinator(engine.store)
        code = engine.store.device.block_ids()[0]
        before = engine.store.io_snapshot()
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    read_map(coordinator, [code])[code]
                )
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reads = engine.store.io_since(before).reads
        stats = coordinator.stats()
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert stats["fetches"] + stats["shared"] == 8
        assert stats["shared"] >= 1  # at least one piggy-backed read
        assert reads == stats["fetches"]  # only leaders touch the device

    def test_followers_share_an_immutable_payload(self):
        engine = build_engine(pool_capacity=None, latency_s=0.005)
        coordinator = ScanCoordinator(engine.store)
        code = engine.store.device.block_ids()[0]
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    read_map(coordinator, [code])[code]
                )
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Followers receive the leader's payload itself, which nobody
        # can mutate.
        assert len(results) == 4
        assert not any(r.flags.writeable for r in results)
        assert all(np.array_equal(r, results[0]) for r in results)

    def test_shared_scan_view_matches_plain_store(self):
        engine = build_engine()
        view = shared_scan_view(engine)
        for query in mixed_workload(engine, count=6, seed=13):
            assert view.evaluate_exact(query) == engine.evaluate_exact(query)
            assert list(view.evaluate_progressive(query)) == list(
                engine.evaluate_progressive(query)
            )

    def test_scan_error_propagates_to_all_waiters(self):
        engine = build_engine(pool_capacity=None)
        coordinator = ScanCoordinator(engine.store)
        with pytest.raises(Exception):
            coordinator.read_many([999_999])  # no such block
        assert coordinator._inflight == {}  # flight always cleaned up

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
        coordinator = ScanCoordinator(store)
        outcomes = {}

        def ask(name, codes):
            def run():
                try:
                    outcomes[name] = read_map(coordinator, codes)
                except StorageError as exc:
                    outcomes[name] = exc
            return threading.Thread(target=run)

        first, second = ask("first", [1, 2, 3]), ask("second", [2, 3, 4])
        first.start()
        assert store.first_entered.wait(30)
        second.start()
        # The second batch leads only the block nobody is reading, and
        # by then has queued behind the first batch's flights for 2 and 3.
        assert store.second_entered.wait(30)
        store.release.set()
        first.join(30)
        second.join(30)
        assert not first.is_alive() and not second.is_alive()
        assert store.calls == [[1, 2, 3], [4]]
        assert coordinator._inflight == {}
        stats = coordinator.stats()
        assert stats["fetches"] == 4
        if leader_fails:
            # The leader's failure reaches its waiter — the same error.
            assert isinstance(outcomes["first"], StorageError)
            assert outcomes["second"] is outcomes["first"]
            assert stats["shared"] == 1  # the waiter raised at block 2
        else:
            assert sorted(outcomes["first"]) == [1, 2, 3]
            assert sorted(outcomes["second"]) == [2, 3, 4]
            for shared in (2, 3):  # one read, one payload object
                assert outcomes["second"][shared] is outcomes["first"][shared]
            assert stats["shared"] == 2  # once per piggy-backed block

    def test_scalar_query_issues_one_coalesced_store_read(self, monkeypatch):
        engine = build_engine(pool_capacity=None)
        view = shared_scan_view(engine)
        query = mixed_workload(engine, count=1, seed=19)[0]
        calls = []
        expected = engine.evaluate_exact(query)
        read_many = engine.store.read_many
        monkeypatch.setattr(
            engine.store, "read_many",
            lambda codes: calls.append(codes.tolist()) or read_many(codes),
        )
        assert view.evaluate_exact(query) == expected
        (ids,) = calls
        assert set(ids) == engine.store.blocks_for(
            engine.query_arrays(query)[0]
        )
        assert view.store.coordinator.stats()["fetches"] == len(ids)


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
        # close() runs between _admit's closed check and its put, so the
        # task lands behind the shutdown sentinels.
        service = QueryService(build_engine(), workers=2)
        name = "put" if block else "put_nowait"
        real_put = getattr(service._tasks, name)

        def put_after_close(task):
            setattr(service._tasks, name, real_put)
            service.close(wait=wait)
            real_put(task)

        setattr(service._tasks, name, put_after_close)
        future = service.submit_exact(
            RangeSumQuery.count([(0, 3), (0, 3)]), block=block
        )
        with pytest.raises(QueryError, match="closed"):
            future.result(timeout=2)
        assert service._tasks.empty()

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
