"""Traces across the queues: one span door, one clock, one hand-off.

A span's ids say where it sits (``trace_id``, ``span_id``,
``parent_id``); on a :class:`~repro.core.clock.SimClock` an engine
query's tree is a pure function of its inputs, durations included.  A
served query or an ingested point crosses a thread through a queue, and
its trace crosses with it as a :func:`~repro.obs.spans.handoff`: the
service's latency span and the committer's queue wait land in the
submitter's trace, and the served answer's provenance names it.  Under
a :class:`~repro.obs.NullRegistry` none of this draws an id or reads
the clock.
"""

import sys
import threading

import numpy as np

from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.cluster import BackendNode, ClusterFrontend
from repro.core.clock import SimClock
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, NullRegistry, span, use_registry
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService
from repro.storage.device import StorageSpec
from repro.storage.latency import LatencyModel
from repro.streams import IngestService

QUERY = RangeSumQuery.count([(2, 20), (3, 25)])


def _cube(seed=7):
    return np.random.default_rng(seed).poisson(3.0, (32, 32)).astype(float)


def _engine(storage=None):
    return ProPolyneEngine(
        _cube(), max_degree=1, block_size=5, storage=storage or StorageSpec()
    )


def _to_point(sample):
    return (sample.sensor_id % 32, int(min(31, abs(sample.value) * 4)))


def _tree(root):
    """``(span, parent)`` for every span under ``root``, depth first."""
    out = [(root, None)]
    for at in range(len(out)):
        node = out[at][0]
        out.extend((child, node) for child in node.children)
    return out


def _assert_one_trace(root, trace_id):
    for node, parent in _tree(root):
        assert node.trace_id == trace_id
        if parent is not None:
            assert node.parent_id == parent.span_id


def _names(node):
    return [child.name for child in node.children]


class TestEngineTree:
    def test_exact_query_tree_and_durations_are_the_simulated_seeks(
        self, sim_clock
    ):
        # Population's writes seek on a clock of their own, so this
        # test's timeline holds the query alone and starts at 0.0.
        with SimClock():
            engine = _engine(
                StorageSpec(shards=4, latency=LatencyModel(base_s=0.002))
            )
        with use_registry(MetricsRegistry()) as registry:
            engine.evaluate_exact(QUERY)
        [exact] = registry.spans
        [fetch] = exact.children
        assert (exact.name, fetch.name) == ("query.exact", "storage.fetch")
        assert exact.parent_id is None and exact.trace_id == exact.span_id
        assert fetch.parent_id == exact.span_id
        assert fetch.trace_id == exact.trace_id
        assert fetch.children == []
        # One group seek per shard; the fan-out costs the largest.
        assert len(sim_clock.slept) == 4
        assert fetch.duration == exact.duration == max(sim_clock.slept)
        assert registry.histogram("storage.fetch.seconds").total == max(
            sim_clock.slept
        )


class TestServedTrace:
    def test_served_queries_are_one_trace_each(self):
        engine = _engine(StorageSpec(shards=4))
        with use_registry(MetricsRegistry()) as registry:
            with QueryService(engine, workers=1) as service:
                outcome = service.submit_degradable(QUERY).result(timeout=60)
                service.submit_exact(QUERY).result(timeout=60)
        degradable, exact = registry.spans
        for served in (degradable, exact):
            assert served.name == "query.service.latency"
            assert served.parent_id is None
            _assert_one_trace(served, served.trace_id)
        assert degradable.trace_id != exact.trace_id
        assert _names(degradable) == ["query.service.queue_wait"]
        assert _names(exact) == ["query.service.queue_wait", "query.exact"]
        assert _names(exact.children[1]) == ["storage.fetch"]
        assert outcome.provenance.trace_id == degradable.trace_id
        for name in ("queue_wait", "latency"):
            histogram = registry.histogram(f"query.service.{name}.seconds")
            assert histogram.count == 2

    def test_caller_span_parents_a_routed_query(self):
        nodes = [BackendNode(f"backend-{i}", workers=1) for i in range(2)]
        with use_registry(MetricsRegistry()):
            with ClusterFrontend(nodes) as frontend:
                frontend.populate("acme", "gloves", _cube())
                with span("caller") as caller:
                    outcome = frontend.submit_degradable(
                        "acme", "gloves", QUERY
                    ).result(timeout=60)
        [served] = caller.children
        assert served.name == "query.service.latency"
        assert served.parent_id == caller.span_id
        _assert_one_trace(caller, caller.trace_id)
        assert outcome.provenance.trace_id == caller.trace_id

    def test_every_submitter_gets_its_own_trees_back(self):
        # A worker that kept a span open between tasks would parent the
        # next task's latency span to it: the open span wins over the
        # hand-off.  So every latency span being its own submitter's
        # child is also the check that workers start each task clean.
        engine = _engine(StorageSpec(shards=4))
        queries = [
            RangeSumQuery.count([(i, i + 6), (0, 20)]) for i in range(25)
        ]
        roots = {}
        with use_registry(MetricsRegistry()) as registry:
            with QueryService(engine, workers=4, queue_depth=256) as service:

                def submitter(k):
                    with span("submitter") as mine:
                        futures = [
                            service.submit_exact(q, block=True)
                            for q in queries
                        ]
                        for future in futures:
                            future.result(timeout=60)
                    roots[k] = mine

                threads = [
                    threading.Thread(target=submitter, args=(k,))
                    for k in range(8)
                ]
                previous = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                finally:
                    sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(roots) == 8
        assert sorted(id(s) for s in registry.spans) == sorted(
            id(s) for s in roots.values()
        )
        assert len({s.trace_id for s in roots.values()}) == 8
        for mine in roots.values():
            assert _names(mine) == ["query.service.latency"] * 25
            _assert_one_trace(mine, mine.trace_id)
            for served in mine.children:
                assert _names(served) == [
                    "query.service.queue_wait", "query.exact"
                ]


class TestIngestTrace:
    def test_commit_links_cover_every_push_including_a_failed_commit(self):
        engine = _engine(
            StorageSpec(fault_plan=FaultPlan(seed=5, write_error_rate=1.0))
        )
        engine.store.set_injecting(False)
        rng = np.random.default_rng(3)
        pushes = []
        with use_registry(MetricsRegistry()) as registry:
            with IngestService(engine, commit_batch=16) as service:
                sessions = [
                    service.open_session(
                        f"session-{i}",
                        StreamingAdaptiveSampler(width=4, rate_hz=32.0),
                        _to_point,
                    )
                    for i in range(3)
                ]

                def round_of_pushes():
                    for session in sessions:
                        with span("test.push") as push:
                            enqueued = session.push(rng.normal(size=4))
                        if enqueued:
                            pushes.append(push)

                for _ in range(6):
                    round_of_pushes()
                service.flush()
                engine.store.set_injecting(True)
                round_of_pushes()
                service.flush()
                engine.store.set_injecting(False)
        commits = [s for s in registry.spans if s.name == "ingest.commit"]
        waits = [
            child for push in pushes for child in push.children
            if child.name == "ingest.queue_wait"
        ]
        assert service.commits >= 1 and service.failed_batches
        assert len(commits) == service.commits + len(service.failed_batches)
        assert registry.histogram("ingest.queue_wait.seconds").count == len(
            commits
        )
        # Each commit's wait is its oldest point's, in that push's trace.
        assert len(waits) == len(commits)
        for wait in waits:
            assert wait.trace_id in {push.trace_id for push in pushes}
        linked = set().union(*(commit.links for commit in commits))
        assert linked == {push.trace_id for push in pushes}
        for commit in commits:
            assert list(commit.links) == sorted(set(commit.links))


class _CountingClock(SimClock):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def now(self):
        self.reads += 1
        return super().now()


class TestOffPath:
    def test_null_registry_draws_no_id_and_reads_the_clock_as_before(self):
        # The parent commit read the clock once on these paths: the
        # degradable query's deadline start.  Hand-offs and spans add
        # no read and draw no id.
        from repro.obs.spans import handoff

        engine = _engine(StorageSpec(shards=4))
        with use_registry(MetricsRegistry()):
            last_id = handoff().trace_id
        with use_registry(NullRegistry()), _CountingClock() as counting:
            with QueryService(engine, workers=1) as service:
                outcome = service.submit_degradable(QUERY).result(timeout=60)
                service.submit_exact(QUERY).result(timeout=60)
            served_reads = counting.reads
            with IngestService(_engine(), commit_batch=16) as ingest:
                ingest.submit_many([(1, 2), (3, 4)], [1.0, 1.0])
                ingest.flush()
        assert outcome.provenance.trace_id is None
        assert served_reads == 1
        assert counting.reads == 1
        with use_registry(MetricsRegistry()):
            assert handoff().trace_id == last_id + 1  # no id drawn between
