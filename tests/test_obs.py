"""Tests for the unified observability layer (repro.obs)."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    registry_from_dict,
    registry_to_dict,
    render_text,
    span,
    to_json,
    use_registry,
)
from repro.obs.registry import MAX_SPANS
from repro.obs.spans import current_trace
from repro.obs.stats import StatsBase
from repro.storage.device import PoolStats
from repro.storage.disk import IOStats


class TestRegistry:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        c1 = reg.counter("a.b")
        c2 = reg.counter("a.b")
        assert c1 is c2
        c1.inc()
        c2.inc(4)
        assert reg.counter("a.b").value == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == 2.5

    def test_reset_zeroes_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(9.0)
        reg.histogram("h").observe(0.5)
        reg.reset()
        assert reg.counter("c").value == 0
        assert reg.gauge("g").value == 0.0
        assert reg.histogram("h").count == 0

    def test_histogram_first_caller_fixes_buckets(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("h", (1, 2))
        h2 = reg.histogram("h", (10, 20))
        assert h2 is h1
        assert h1.buckets == (1.0, 2.0)


class TestHistogramBuckets:
    def test_edges_are_inclusive_upper_bounds(self):
        h = Histogram("h", (1, 2, 4))
        for v in (1, 2, 4):  # exactly on an edge -> that bucket
            h.observe(v)
        assert h.counts == [1, 1, 1, 0]

    def test_overflow_and_underflow(self):
        h = Histogram("h", (1, 2, 4))
        h.observe(0.1)   # below first edge -> first bucket
        h.observe(100)   # beyond last edge -> overflow slot
        assert h.counts == [1, 0, 0, 1]

    def test_count_total_min_max_mean(self):
        h = Histogram("h", DEFAULT_COUNT_BUCKETS)
        for v in (1, 3, 8):
            h.observe(v)
        assert h.count == 3
        assert h.total == 12
        assert h.min == 1
        assert h.max == 8
        assert h.mean == 4

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (4, 2, 1))


class TestSpans:
    def test_nesting_builds_a_tree(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        assert len(reg.spans) == 1
        root = reg.spans[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner", "inner2"]
        assert root.duration >= sum(c.duration for c in root.children)

    def test_span_records_latency_histogram(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with span("op"):
                pass
        assert reg.histogram("op.seconds").count == 1

    def test_current_span_tracks_innermost(self):
        # The innermost open span is the parent of the next one, and
        # every span of the tree shares the root's id as its trace.
        reg = MetricsRegistry()
        with use_registry(reg):
            assert current_trace() is None
            with span("a") as a:
                assert a.parent_id is None and a.trace_id == a.span_id
                with span("b") as b:
                    assert b.parent_id == a.span_id
                    with span("c") as c:
                        assert c.parent_id == b.span_id
                with span("d") as d:
                    assert d.parent_id == a.span_id
                assert current_trace() == a.trace_id
            assert current_trace() is None
        assert {b.trace_id, c.trace_id, d.trace_id} == {a.trace_id}
        assert a.children == [b, d] and b.children == [c]

    def test_null_registry_spans_are_noop(self):
        reg = NullRegistry()
        with use_registry(reg):
            with span("x") as s:
                pass
        assert len(reg.spans) == 0
        assert s.to_dict() == {}


class TestNullRegistry:
    def test_instruments_discard_everything(self):
        reg = NullRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(3.0)
        reg.histogram("h").observe(1.0)
        assert registry_to_dict(reg) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": [],
        }

    def test_use_registry_restores_previous(self):
        from repro.obs import get_registry

        before = get_registry()
        with use_registry(NullRegistry()) as reg:
            assert get_registry() is reg
        assert get_registry() is before


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            reg.counter("storage.disk.reads").inc(7)
            reg.gauge("acquisition.last_nrmse").set(0.01)
            h = reg.histogram("query.blocks_per_query", DEFAULT_COUNT_BUCKETS)
            for v in (1, 3, 900, 9999):
                h.observe(v)
            with span("query.exact"):
                with span("storage.fetch"):
                    pass
        return reg

    def test_round_trip_through_json(self):
        reg = self._populated()
        original = registry_to_dict(reg)
        rebuilt = registry_from_dict(json.loads(to_json(reg)))
        assert registry_to_dict(rebuilt) == original

    def test_text_report_mentions_every_instrument(self):
        text = render_text(self._populated())
        for name in (
            "storage.disk.reads",
            "acquisition.last_nrmse",
            "query.blocks_per_query",
            "query.exact",
            "storage.fetch",
        ):
            assert name in text


class TestExportBesideWriters:
    def test_export_while_another_thread_finishes_root_spans(self):
        # Regression: registry_to_dict iterated the spans deque with
        # Python running between items, so a root span finishing on
        # another thread raised "deque mutated during iteration" (about
        # one export in 1000 beside the cluster workload's committer).
        reg = MetricsRegistry()
        stop = threading.Event()
        failures: list[BaseException] = []

        def churn():
            while not stop.is_set():
                with span("writer.commit"):
                    with span("writer.store"):
                        pass

        def export():
            try:
                # 500 exports of MAX_SPANS (256) roots walk as many
                # entries as the 2000 exports of 64 that first caught it.
                for _ in range(500):
                    assert len(registry_to_dict(reg)["spans"]) <= MAX_SPANS
                    render_text(reg)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=churn)
        reader = threading.Thread(target=export)
        with use_registry(reg):
            try:
                writer.start()
                reader.start()
                reader.join(120)
            finally:
                stop.set()
                writer.join(30)
                sys.setswitchinterval(previous)
        assert not reader.is_alive() and not writer.is_alive()
        assert failures == []
        assert reg.spans  # the writer really was retaining root spans


class TestStatsProtocol:
    """IOStats and PoolStats share one reset/snapshot/delta protocol."""

    @pytest.mark.parametrize("cls", [IOStats, PoolStats])
    def test_protocol_methods_present(self, cls):
        stats = cls()
        assert isinstance(stats, StatsBase)
        for method in ("reset", "snapshot", "delta", "as_dict"):
            assert callable(getattr(stats, method))

    def test_iostats_differencing(self):
        stats = IOStats(reads=3, writes=1)
        before = stats.snapshot()
        stats.reads += 4
        delta = stats.delta(before)
        assert (delta.reads, delta.writes) == (4, 0)

    def test_poolstats_differencing_and_reset(self):
        stats = PoolStats(hits=2, misses=3)
        before = stats.snapshot()
        stats.hits += 8
        stats.evictions += 1
        delta = stats.delta(before)
        assert (delta.hits, delta.misses, delta.evictions) == (8, 0, 1)
        stats.reset()
        assert stats.as_dict() == {
            "hits": 0, "misses": 0, "shared": 0, "evictions": 0,
            "invalidations": 0,
        }

    def test_snapshot_is_independent(self):
        stats = PoolStats()
        snap = stats.snapshot()
        stats.hits += 5
        assert snap.hits == 0


class TestFacadeMetrics:
    """A full acquire -> populate -> query -> recognize pass reports into
    the registry AIMS.metrics() exposes."""

    def test_end_to_end_pass_populates_registry(self):
        from repro.core.aims import AIMS, AIMSConfig
        from repro.online.recognizer import RecognizerConfig
        from repro.query.rangesum import RangeSumQuery
        from repro.sensors.asl import (
            ASL_VOCABULARY,
            synthesize_session,
            synthesize_sign,
        )
        from repro.streams.source import ArraySource

        rng = np.random.default_rng(7)
        with use_registry(MetricsRegistry()):
            system = AIMS(
                AIMSConfig(max_degree=1, block_size=7, pool_capacity=8)
            )
            reg = system.metrics()

            t = np.linspace(0.0, 1.0, 64)
            session = np.column_stack(
                [np.sin(2 * np.pi * 3 * t), np.cos(2 * np.pi * 5 * t)]
            )
            system.acquire(session, rate_hz=64.0)

            engine = system.populate("demo", np.ones((16, 16)))
            engine.evaluate_exact(RangeSumQuery.count([(2, 13), (1, 12)]))
            system.aggregates("demo").average(
                [(0, 15), (0, 15)], dim=1
            )

            specs = list(ASL_VOCABULARY[:2])
            system.train_vocabulary(
                {s.name: [synthesize_sign(s, rng).frames for _ in range(2)]
                 for s in specs}
            )
            frames, segments = synthesize_session(
                specs, rng, gap_duration=0.6
            )
            recognizer = system.recognizer(
                rest_frames=frames[: segments[0].start],
                config=RecognizerConfig(
                    window=50, compare_every=10,
                    declare_threshold=0.4, decline_steps=3,
                ),
            )
            recognizer.process(ArraySource(frames, rate_hz=60.0))

            # Every subsystem has reported in.
            assert reg.counter("acquisition.sessions").value == 1
            assert reg.counter("query.cubes_populated").value == 1
            assert reg.counter("query.exact.queries").value == 1
            assert reg.counter("aggregates.queries").value >= 1
            assert reg.counter("storage.disk.writes").value > 0
            assert reg.counter("storage.disk.reads").value > 0
            pool_traffic = (
                reg.counter("storage.pool.hits").value
                + reg.counter("storage.pool.misses").value
            )
            assert pool_traffic > 0
            assert (
                reg.counter("streams.frames_ingested").value == len(frames)
            )
            assert reg.counter("recognizer.frames").value == len(frames)
            assert reg.counter("recognizer.decisions").value > 0
            assert reg.histogram("query.blocks_per_query").count >= 1
            assert reg.histogram("query.exact.seconds").count == 1
            assert reg.histogram("acquisition.acquire.seconds").count == 1
            # Spans nest: the exact query contains its storage fetch.
            exact_roots = [
                s for s in reg.spans if s.name == "query.exact"
            ]
            assert exact_roots
            assert any(
                c.name == "storage.fetch"
                for c in exact_roots[0].children
            )
