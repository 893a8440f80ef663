"""The four benchmark workloads, driven through the public API only.

A scenario generates its inputs and reference answers once, when it is
made; :meth:`Scenario.setup` then builds the system from them (engine or
cluster, services, warm-up) and :meth:`Scenario.close` takes it down,
as often as the run repeats.  Between the two it serves numbered
operations: :meth:`Scenario.op` is the plain call a client makes, and
:meth:`Scenario.layered_op` does the same work as direct calls into each
layer's public functions, every call inside a benchmark-owned span.
Every answer is checked against the oracle *after* its timed call.

Operation ``i`` is a pure function of the seed and ``i`` (inputs come
from fixed pools that are cycled), so the first ``window_ops``
operations of a phase do exactly the same work on every run of a seed:
count metrics are taken over that window and repeat exactly.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import NamedTuple

import numpy as np

from repro import AIMS, AIMSConfig
from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.cluster.frontend import namespace_key
from repro.core.errors import AIMSError
from repro.obs import get_registry
from repro.query.batch import BatchEvaluator
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine, sparse_inner_product
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.query.service import QueryService
from repro.storage.device import StorageSpec
from repro.storage.latency import LatencyModel
from repro.streams import IngestService
from repro.wavelets.lazy import lazy_range_query_transform, translation_cache

import workloads as gen

MAX_DEGREE = 1
BLOCK_SIZE = 7
TOLERANCE = 1e-9
ROUND_TICKS = 5
# Warm-up rounds of a producer: past the sampler's first window (16
# ticks), in which it records every tick.
WARMUP_ROUNDS = 4


class OpResult(NamedTuple):
    """Outcome of one operation."""

    latency_s: float  # what the caller waited for
    items: int  # queries answered or points committed
    attempted: int  # answers, points and barriers checked
    failed: int  # of those, how many were wrong, refused or raised


def _close_to(value: float, expected: float) -> bool:
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


class Oracle:
    """Reference answers for a fixed list of queries on one cube.

    Two references per query, both generated before anything is timed:
    the dense ``evaluate_on_cube`` sum (compared to 1e-9 relative) and a
    zero-latency, unsharded, uncached reference engine's exact answer
    (compared bitwise — the repo's same-bits invariant).  The reference
    engine answers through ``BatchEvaluator``, which that invariant
    makes bitwise-equal to ``evaluate_exact`` at a third of the cost.
    """

    def __init__(self, cube: np.ndarray, queries: list[RangeSumQuery]) -> None:
        reference = ProPolyneEngine(
            cube, max_degree=MAX_DEGREE, block_size=BLOCK_SIZE
        )
        try:
            evaluator = BatchEvaluator(reference)
            self.exact: list[float] = []
            for start in range(0, len(queries), 64):
                self.exact += evaluator.evaluate_exact(queries[start:start + 64])
        finally:
            reference.store.close()
        self.dense = [evaluate_on_cube(cube, q) for q in queries]

    def wrong(self, k: int, answer: float) -> int:
        """1 when ``answer`` fails either reference for query ``k``."""
        return int(
            answer != self.exact[k] or not _close_to(answer, self.dense[k])
        )


def _layers(stats, kind: str):
    """Every node of a nested ``storage_stats()`` tree with that layer."""
    if isinstance(stats, dict):
        if stats.get("layer") == kind:
            yield stats
        for value in stats.values():
            yield from _layers(value, kind)
    elif isinstance(stats, list):
        for value in stats:
            yield from _layers(value, kind)


def whole_cube_count(shape: tuple[int, ...]) -> RangeSumQuery:
    return RangeSumQuery.count([(0, n - 1) for n in shape])


def layered_query(tracer, i: int, engine, query: RangeSumQuery):
    """``evaluate_exact`` taken apart into its public steps.

    ``query.translate`` → ``storage.fetch`` → ``query.reduce`` are the
    three steps ``evaluate_exact`` runs; ``storage.plan`` and
    ``storage.device_read`` are the two parts of ``storage.fetch``,
    measured by their own calls (so the device read happens twice: on a
    cached store the first pays the misses).  Returns the answer and the
    query's entry and block counts.
    """
    store = engine.store
    with tracer.span("wavelets.transform", i):
        for (lo, hi), poly, n, levels in zip(
            query.ranges, query.polys, engine.shape, engine.levels
        ):
            lazy_range_query_transform(poly, lo, hi, n, engine.filter, levels)
    with tracer.span("query.translate", i):
        entries = engine.query_entries(query)
    keys = list(entries)
    with tracer.span("storage.plan", i):
        block_ids = store.blocks_for(keys)
    with tracer.span("storage.device_read", i):
        store.fetch_blocks(sorted(block_ids))
    with tracer.span("storage.fetch", i):
        stored = store.fetch(keys)
    with tracer.span("query.reduce", i):
        answer = sparse_inner_product(entries, stored)
    return answer, len(entries), len(block_ids)


class Scenario:
    """One workload.  Subclasses fill in set-up and the two op forms."""

    name = ""
    item = ""  # what throughput and per-item metrics count
    latency_of = ""  # what the latency metrics time
    tail_percentile = 95
    window_ops = 0  # ops in the exact-count window
    # Window counters that one client and no timers make repeat exactly.
    exact_counters: tuple[str, ...] = ("disk_reads", "disk_writes")
    config: dict = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Build the system and warm it up, as cold as the first time:
        nothing of an earlier build, or of the reference engine, is left
        in the process-wide translation cache."""
        self._resources = ExitStack()
        self.stores: list = []
        self.services: list = []
        self.ingests: list = []
        self.samplers: list = []
        # Per layered op, in op order (exact over the window).
        self.entries_per_query: list[float] = []
        self.blocks_per_query: list[float] = []
        self.producer = None  # set by the workloads that ingest
        translation_cache().clear()
        try:
            self.build()
        except BaseException:
            self.close()
            raise

    def build(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def layered_op(self, i: int, tracer) -> OpResult:
        raise NotImplementedError

    def background(self, tracer):
        """Context manager running side traffic during a phase; yields a
        dict it fills on exit (``attempted``, ``failed``, ...)."""
        return nullcontext({})

    def derived(self, plain_latencies_ms: list[float], tracer) -> dict:
        """Layer metrics only this workload can work out."""
        return {}

    def close(self) -> None:
        """Stop every service and release storage (idempotent)."""
        self._resources.close()

    @property
    def queue_depth_max(self) -> int:
        """Deepest commit queue the producer saw (0 without one)."""
        return self.producer.queue_depth_max if self.producer else 0

    def _engine(self, cube, spec: StorageSpec) -> ProPolyneEngine:
        engine = ProPolyneEngine(
            cube, max_degree=MAX_DEGREE, block_size=BLOCK_SIZE, storage=spec
        )
        self._resources.callback(engine.store.close)
        self.stores.append(engine.store)
        return engine

    def counters(self) -> dict:
        """Cumulative public counters of every layer this workload uses
        (numbers, or per-shard lists); phases difference two of these."""
        out = {
            "disk_reads": 0, "disk_writes": 0, "cache_hits": 0,
            "cache_misses": 0, "cache_evictions": 0, "shard_reads": [],
            "scan_fetches": 0, "scan_shared": 0, "commits": 0,
            "committed_points": 0, "failed_batch_points": 0,
            "samples_recorded": 0, "samples_seen": 0,
        }
        for store in self.stores:
            io = store.io_snapshot()
            out["disk_reads"] += io.reads
            out["disk_writes"] += io.writes
            stats = store.storage_stats()
            for cache in _layers(stats, "caching"):
                out["cache_hits"] += cache["hits"]
                out["cache_misses"] += cache["misses"]
                out["cache_evictions"] += cache["evictions"]
            out["shard_reads"] += [d["reads"] for d in _layers(stats, "disk")]
        for service in self.services:
            scan = service.scan_stats()
            out["scan_fetches"] += scan["fetches"]
            out["scan_shared"] += scan["shared"]
        for ingest in self.ingests:
            out["commits"] += ingest.commits
            out["committed_points"] += ingest.committed_points
            out["failed_batch_points"] += sum(
                len(points) for points, _ in ingest.failed_batches
            )
        for sampler in self.samplers:
            out["samples_recorded"] += sampler.stats.samples_recorded
            out["samples_seen"] += sampler.stats.ticks_seen * sampler.width
        cache = translation_cache().stats()
        out["transcache_hits"] = cache["hits"]
        out["transcache_misses"] = cache["misses"]
        # Not registry_to_dict: it walks the retained spans, which the
        # cluster workload's committer thread appends to meanwhile
        # ("deque mutated during iteration", about one call in 1000).
        touched = next(
            (h for h in get_registry().histograms()
             if h.name == "query.insert.blocks_touched"), None,
        )
        out["insert_batches"] = touched.count if touched else 0
        out["insert_blocks_touched"] = touched.total if touched else 0.0
        return out


class ScalarCpu(Scenario):
    """Zero latency, no block cache, one client: CPU truth for the
    scalar path."""

    name = "scalar_cpu"
    item = "query"
    latency_of = "one evaluate_exact call"
    # Not p95: it rides the machine's slow spells, and over ten seeds
    # spread by 25% of its median, twice what the median latency did.
    tail_percentile = 90
    # More queries than an untraced repetition reaches, so none is met
    # twice and the translation cache hits as rarely as on fresh traffic.
    pool = 512
    warmup = 64
    window_ops = 256
    config = {
        "cube": list(gen.SCALAR_SHAPE), "shards": 4, "cache_blocks": None,
        "latency_base_s": 0.0, "clients": 1, "query_pool": pool,
        "warmup_ops": warmup,
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cube = gen.poisson_cube(seed, gen.SCALAR_SHAPE)
        self.queries = gen.scalar_queries(seed, self.pool, self.window_ops)
        self.oracle = Oracle(self.cube, self.queries)

    def build(self) -> None:
        self.engine = self._engine(self.cube, StorageSpec(shards=4))
        # The pool's tail warms the path; the measured ops start at its
        # head, on ranges they have not seen.
        for i in range(self.pool - self.warmup, self.pool):
            if self.op(i).failed:
                raise RuntimeError(f"{self.name}: wrong answer in warm-up")

    def op(self, i: int) -> OpResult:
        k = i % self.pool
        started = time.perf_counter()
        try:
            answer = self.engine.evaluate_exact(self.queries[k])
        except AIMSError:
            answer = None
        latency = time.perf_counter() - started
        failed = 1 if answer is None else self.oracle.wrong(k, answer)
        return OpResult(latency, 1, 1, failed)

    def layered_op(self, i: int, tracer) -> OpResult:
        k = i % self.pool
        with tracer.span("op", i) as root:
            answer, entries, blocks = layered_query(
                tracer, i, self.engine, self.queries[k]
            )
        self.entries_per_query.append(entries)
        self.blocks_per_query.append(blocks)
        # A decomposition that does not reproduce evaluate_exact bitwise
        # is a failed op: the trace would describe some other program.
        return OpResult(
            root["end"] - root["start"], 1, 1, self.oracle.wrong(k, answer)
        )


class DrilldownIo(Scenario):
    """Simulated device latency, a cache the working set fits, batches
    through the query service: the paper's I/O story."""

    name = "drilldown_io"
    item = "query"
    latency_of = "one 24-query batch, submit to result"
    tail_percentile = 95
    window_ops = len(gen.DRILLDOWN_TOUR) * gen.SESSION_BATCHES
    config = {
        "cube": list(gen.DRILLDOWN_SHAPE), "shards": 4, "cache_blocks": 1024,
        "latency_base_s": 0.002, "clients": 1, "service_workers": 2,
        "queue_depth": 8, "batch_queries": gen.BATCH_QUERIES,
        "batch_pool": window_ops, "warmup_ops": gen.SESSION_BATCHES,
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cube = gen.poisson_cube(seed, gen.DRILLDOWN_SHAPE)
        self.batches = gen.drilldown_batches(seed)
        self.oracle = Oracle(self.cube, [q for b in self.batches for q in b])

    def build(self) -> None:
        self.engine = self._engine(self.cube, StorageSpec(
            shards=4, cache_blocks=1024, latency=LatencyModel(base_s=0.002),
        ))
        self.service = QueryService(self.engine, workers=2, queue_depth=8)
        self._resources.callback(self.service.close)
        self.services.append(self.service)
        self.evaluator = BatchEvaluator(self.engine)
        # Warm up on the last session, which is what precedes the first
        # one when the pool wraps around: every pass over the pool then
        # meets the cache in the same state and reads the same blocks.
        for i in range(len(self.batches) - gen.SESSION_BATCHES, len(self.batches)):
            if self.op(i).failed:
                raise RuntimeError(f"{self.name}: wrong answer in warm-up")

    def _check(self, k: int, answers) -> int:
        if answers is None:
            return gen.BATCH_QUERIES
        base = k * gen.BATCH_QUERIES
        return sum(self.oracle.wrong(base + j, a) for j, a in enumerate(answers))

    def op(self, i: int) -> OpResult:
        k = i % len(self.batches)
        started = time.perf_counter()
        try:
            answers = self.service.submit_batch(
                self.batches[k], block=True
            ).result()
        except AIMSError:
            answers = None
        latency = time.perf_counter() - started
        n = gen.BATCH_QUERIES
        return OpResult(latency, n, n, self._check(k, answers))

    def layered_op(self, i: int, tracer) -> OpResult:
        k = i % len(self.batches)
        batch = self.batches[k]
        store = self.engine.store
        with tracer.span("op", i) as root:
            with tracer.span("query.translate", i):
                entries = [self.engine.query_entries(q) for q in batch]
            with tracer.span("storage.plan", i):
                block_ids = set()
                for e in entries:
                    block_ids |= store.blocks_for(list(e))
            # The cold read: pays this batch's cache misses and their
            # simulated seeks, so the evaluation below finds its blocks
            # resident and times evaluation alone.
            with tracer.span("storage.device_read", i):
                store.fetch_blocks(sorted(block_ids))
            with tracer.span("query.batch_eval", i):
                answers = self.evaluator.evaluate_exact(batch)
        n = gen.BATCH_QUERIES
        self.entries_per_query.append(sum(len(e) for e in entries) / n)
        self.blocks_per_query.append(len(block_ids) / n)
        return OpResult(
            root["end"] - root["start"], n, n, self._check(k, answers)
        )

    def derived(self, plain_latencies_ms, tracer) -> dict:
        direct = [
            read + evaluate for read, evaluate in zip(
                tracer.durations_ms("storage.device_read"),
                tracer.durations_ms("query.batch_eval"),
            )
        ]
        return {
            "query.service_overhead_ms":
                float(np.median(plain_latencies_ms) - np.median(direct)),
        }


class _Producer:
    """Sessions pushing pre-generated ticks, with a barrier per round.

    A round pushes ``ROUND_TICKS`` ticks through every session, then
    flushes and asks for the whole-cube COUNT, which must equal the
    points pushed so far.  Shared by the ingest workload (the client
    itself) and the cluster workload (its writer thread).
    """

    def __init__(self, sessions, ingest, ticks, count) -> None:
        self.sessions = sessions
        self.ingest = ingest
        self.ticks = ticks
        self.count = count  # () -> whole-cube COUNT
        self.tick = 0
        self.expected = 0.0  # points the cube must hold
        self.failed_batch_points = 0
        self.queue_depth_max = 0

    def prime(self, cells: list[tuple]) -> None:
        """Insert every cell the sensors can reach once: the inserter
        translates a cell the first time it sees it (2-3 ms) and keeps
        the result, and timing should start after that."""
        for cell in cells:
            self.ingest.submit(cell)
        self.expected += len(cells)
        self.ingest.flush()

    def round(self, tracer=None, trace_id: int = 0) -> OpResult:
        span = tracer.span if tracer else (lambda name, i: nullcontext())
        pushed = 0
        last_push = time.perf_counter()
        for _ in range(ROUND_TICKS):
            frame = self.ticks[self.tick % len(self.ticks)]
            self.tick += 1
            for s, session in enumerate(self.sessions):
                last_push = time.perf_counter()
                with span("streams.push", trace_id):
                    pushed += session.push(frame[s])
            self.queue_depth_max = max(
                self.queue_depth_max, self.ingest.queue_depth
            )
        self.expected += pushed
        try:
            with span("streams.flush", trace_id):
                self.ingest.flush()
            with span("query.barrier_count", trace_id):
                counted = self.count()
        except AIMSError:
            counted = None
        lag = time.perf_counter() - last_push
        lost = sum(len(points) for points, _ in self.ingest.failed_batches)
        failed = lost - self.failed_batch_points
        self.failed_batch_points = lost
        if counted is None or not _close_to(counted, self.expected - lost):
            failed += 1
        return OpResult(lag, pushed, pushed + 1, failed)


def _samplers(count: int) -> list[StreamingAdaptiveSampler]:
    return [
        StreamingAdaptiveSampler(
            width=gen.SENSOR_WIDTH, rate_hz=gen.TICK_RATE_HZ,
            window_seconds=gen.SAMPLER_WINDOW_S,
            sensor_ids=list(range(s * gen.SENSOR_WIDTH, (s + 1) * gen.SENSOR_WIDTH)),
        )
        for s in range(count)
    ]


class IngestCpu(Scenario):
    """Sixteen sampler sessions feeding one ingest service at zero
    latency: the same storage and wavelet layers, written not read."""

    name = "ingest_cpu"
    item = "point"
    latency_of = "last push before a barrier to the COUNT confirming it"
    tail_percentile = 75
    n_sessions = 16
    n_ticks = 1024
    # How the committer groups points depends on timing, and with it the
    # read-modify-write I/O (hence a window most of a repetition long);
    # the points themselves do not.
    window_ops = 36
    exact_counters = ("committed_points",)
    probe_batch = 256
    config = {
        "cube": list(gen.SCALAR_SHAPE), "shards": 4, "cache_blocks": None,
        "latency_base_s": 0.0, "clients": 1, "sessions": n_sessions,
        "sensor_width": gen.SENSOR_WIDTH, "queue_capacity": 4096,
        "commit_batch": 256, "round_ticks": ROUND_TICKS,
        "warmup_ops": WARMUP_ROUNDS,
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        shape = gen.SCALAR_SHAPE
        self.tick_pool = gen.tick_vectors(seed, self.n_sessions, self.n_ticks)
        self.cells = gen.sensor_cells(self.tick_pool, shape)
        self.probe_points = gen.probe_points(seed, self.cells, self.probe_batch)

    def build(self) -> None:
        shape = gen.SCALAR_SHAPE
        self.engine = self._engine(np.zeros(shape), StorageSpec(shards=4))
        # No coordinator: sampler decisions stay a pure function of the
        # input, so the committed point count is exact.
        self.ingest = IngestService(
            self.engine, queue_capacity=4096, commit_batch=256,
            coordinator=None,
        ).start()
        self._resources.callback(self.ingest.stop)
        self.ingests.append(self.ingest)
        self.samplers = _samplers(self.n_sessions)
        to_point = gen.sample_to_point(shape)
        sessions = [
            self.ingest.open_session(f"s{s}", sampler, to_point)
            for s, sampler in enumerate(self.samplers)
        ]
        count_all = whole_cube_count(shape)
        self.producer = _Producer(
            sessions, self.ingest, self.tick_pool,
            lambda: self.engine.evaluate_exact(count_all),
        )
        self.producer.prime(self.cells)
        self.inserter = BatchInserter(self.engine)
        # The blocks a point insert rewrites are those its impulse's
        # transform lands on.
        self.probe_blocks = sorted(set().union(*(
            self.engine.store.blocks_for(list(self.engine.query_entries(
                RangeSumQuery.count([(c, c) for c in point])
            )))
            for point in self.probe_points[:8]
        )))
        self.probe_sampler = _samplers(1)[0]
        for _ in range(WARMUP_ROUNDS):
            if self.producer.round().failed:
                raise RuntimeError(f"{self.name}: failed barrier in warm-up")

    def op(self, i: int) -> OpResult:
        return self.producer.round()

    def layered_op(self, i: int, tracer) -> OpResult:
        first_tick = self.producer.tick
        with tracer.span("op", i):
            result = self.producer.round(tracer, i)
        # Probes run after the barrier, while the committer is idle.
        store = self.engine.store
        with tracer.span("probe", i):
            for t in range(first_tick, first_tick + ROUND_TICKS):
                frame = self.tick_pool[t % self.n_ticks][0]
                with tracer.span("acquisition.sampler_push", i):
                    self.probe_sampler.push(frame)
            with tracer.span("query.insert_batch", i):
                self.inserter.insert_batch(self.probe_points)
            self.producer.expected += len(self.probe_points)
            payloads = store.fetch_blocks(self.probe_blocks)
            # Re-writes what was just read: stored state is unchanged.
            with tracer.span("storage.store_blocks", i):
                store.store_blocks(payloads)
        return result


class ClusterMixedIo(Scenario):
    """Routed queries over six tenants whose working set is 3x the
    cache, beside a live writer in the same process."""

    name = "cluster_mixed_io"
    item = "query"
    latency_of = "one routed submit_exact, submit to result"
    tail_percentile = 90
    tenants = 6
    # More queries than a repetition reaches; the window is a multiple
    # of the tenants and of the side lengths the generator deals out.
    pool = 252
    warmup = 30
    window_ops = 126
    config = {
        "cube": list(gen.TENANT_SHAPE), "tenants": tenants, "backends": 2,
        "service_workers": 2, "shards": 2, "cache_blocks": 32,
        "latency_base_s": 0.0005, "clients": 2, "query_pool": pool,
        "round_ticks": ROUND_TICKS, "warmup_ops": warmup,
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        shape = gen.TENANT_SHAPE
        self.queries = gen.tenant_queries(
            seed, self.tenants, self.pool, self.window_ops
        )
        self.cubes = [
            gen.poisson_cube(seed, shape, index=t) for t in range(self.tenants)
        ]
        self.oracles = [
            Oracle(cube, [q for tenant, q in self.queries if tenant == t])
            for t, cube in enumerate(self.cubes)
        ]
        self.tick_pool = gen.tick_vectors(seed, 1, 1024)
        self.cells = gen.sensor_cells(self.tick_pool, shape)

    def build(self) -> None:
        shape = gen.TENANT_SHAPE
        aims = AIMS(AIMSConfig(max_degree=MAX_DEGREE, block_size=BLOCK_SIZE))
        self.frontend = aims.cluster(
            backends=2, workers=2,
            storage_factory=lambda: StorageSpec(
                shards=2, cache_blocks=32,
                latency=LatencyModel(base_s=0.0005),
            ),
        )
        self._resources.callback(self.frontend.close)
        for t, cube in enumerate(self.cubes):
            engine = self.frontend.populate(f"t{t}", "d", cube)
            self.stores.append(engine.store)
        self.frontend.populate("w", "live", np.zeros(shape))
        self.samplers = _samplers(1)
        session = self.frontend.open_session(
            "w", "live", "writer", self.samplers[0], gen.sample_to_point(shape)
        )
        self.ingests.append(session.service)
        count_all = whole_cube_count(shape)
        self.producer = _Producer(
            [session], session.service, self.tick_pool,
            lambda: self.frontend.submit_exact(
                "w", "live", count_all, block=True
            ).result(),
        )
        self.producer.prime(self.cells)
        for i in range(self.pool - self.warmup, self.pool):
            if self.op(i).failed:
                raise RuntimeError(f"{self.name}: wrong answer in warm-up")
        for _ in range(WARMUP_ROUNDS):
            if self.producer.round().failed:
                raise RuntimeError(f"{self.name}: failed barrier in warm-up")

    def _wrong(self, k: int, answer) -> int:
        if answer is None:
            return 1
        # Query k is the (k // tenants)-th of its tenant's own list.
        return self.oracles[k % self.tenants].wrong(k // self.tenants, answer)

    def op(self, i: int) -> OpResult:
        k = i % self.pool
        tenant, query = self.queries[k]
        started = time.perf_counter()
        try:
            answer = self.frontend.submit_exact(f"t{tenant}", "d", query).result()
        except AIMSError:  # includes QueryRejected and QuotaExceeded
            answer = None
        latency = time.perf_counter() - started
        return OpResult(latency, 1, 1, self._wrong(k, answer))

    def layered_op(self, i: int, tracer) -> OpResult:
        k = i % self.pool
        tenant, query = self.queries[k]
        with tracer.span("op", i) as root:
            with tracer.span("cluster.route", i):
                self.frontend.route(f"t{tenant}", "d")
            engine = self.frontend.engine(f"t{tenant}", "d")
            answer, entries, blocks = layered_query(tracer, i, engine, query)
        self.entries_per_query.append(entries)
        self.blocks_per_query.append(blocks)
        return OpResult(root["end"] - root["start"], 1, 1, self._wrong(k, answer))

    @contextmanager
    def background(self, tracer):
        """The writer: rounds of pushes and barriers until the reader's
        phase ends."""
        side = {"attempted": 0, "failed": 0, "points": 0, "lags_ms": []}
        stop = threading.Event()

        def write() -> None:
            # Writer trace ids sit far above any reader op index.
            rounds = 1_000_000
            while not stop.is_set():
                try:
                    result = self.producer.round(tracer, rounds)
                except BaseException:
                    # A writer that dies is a failed barrier, not a
                    # quiet phase; the traceback goes to stderr.
                    side["attempted"] += 1
                    side["failed"] += 1
                    raise
                rounds += 1
                side["attempted"] += result.attempted
                side["failed"] += result.failed
                side["points"] += result.items
                side["lags_ms"].append(result.latency_s * 1e3)

        writer = threading.Thread(target=write, name="bench-writer")
        writer.start()
        try:
            yield side
        finally:
            stop.set()
            writer.join()

    def derived(self, plain_latencies_ms, tracer) -> dict:
        # The engine's own work for a query, as evaluate_exact does it.
        # (A query's blocks outnumber a shard's cache here, so the fetch
        # misses as often after the device-read probe as before it.)
        direct = [
            sum(parts) for parts in zip(*(
                tracer.durations_ms(name) for name in
                ("query.translate", "storage.fetch", "query.reduce")
            ))
        ]
        stats = self.frontend.stats()
        rejected = sum(
            space["rejected"]
            for backend in stats["per_backend"].values()
            for space in backend["namespaces"].values()
        )
        namespaces = [
            namespace_key(f"t{t}", "d") for t in range(self.tenants)
        ] + [namespace_key("w", "live")]
        spread = self.frontend.ring.spread(namespaces)
        return {
            "cluster.hop_ms":
                float(np.median(plain_latencies_ms) - np.median(direct)),
            "cluster.rejected": rejected,
            "cluster.ring_max_share": max(spread.values()) / len(namespaces),
        }


SCENARIOS = {
    cls.name: cls for cls in (ScalarCpu, DrilldownIo, IngestCpu, ClusterMixedIo)
}
