"""Concurrent query service: thread-pooled ProPolyne evaluation with
admission control and cross-query shared scans.

§3.3.1 asks for evaluation "algorithms which share I/O maximally and
retrieve the most important data first".  :mod:`repro.query.batch` shares
I/O *within* one pre-declared batch; this module generalizes that static
merge to dynamic traffic — the north-star workload of many independent
callers hitting one cube at once:

* :class:`QueryService` — a thread-pool front end over a
  :class:`~repro.query.propolyne.ProPolyneEngine`.  Exact queries return
  :class:`~concurrent.futures.Future`\\ s; progressive queries return a
  :class:`ProgressiveStream` that yields
  :class:`~repro.query.propolyne.ProgressiveEstimate`\\ s as worker
  threads produce them.  A bounded admission queue rejects work beyond
  ``queue_depth`` with :class:`QueryRejected`, so overload degrades into
  fast failures instead of unbounded queueing.
* :class:`ScanCoordinator` — single-flight deduplication of in-flight
  block reads: when several concurrent queries want the same block, one
  thread performs the read and every waiter shares the payload.
  Combined with the buffer pool (which dedupes *over time*) this is the
  paper's shared-scan discipline applied across independent queries.
* :class:`SharedScanStore` — a read-only view of a block store whose
  block fetches go through a coordinator; everything else delegates to
  the wrapped store.

Results are bitwise-identical to single-threaded evaluation on the same
engine: translation, planning and summation are deterministic, and the
service only ever *reads* through the storage layer.
"""

from __future__ import annotations

import copy
import queue
import threading
from concurrent.futures import Future
from typing import Iterator

import numpy as np

from repro.core.errors import QueryError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs.spans import handoff, span
from repro.query.batch import BatchEvaluator
from repro.query.explain import attach_provenance
from repro.query.propolyne import (
    ProgressiveEstimate,
    ProPolyneEngine,
    QueryOutcome,
)
from repro.query.rangesum import RangeSumQuery
from repro.storage.blockstore import TensorReads
from repro.storage.disk import BlockGroup

__all__ = [
    "ProgressiveStream",
    "QueryRejected",
    "QueryService",
    "ScanCoordinator",
    "SharedScanStore",
    "shared_scan_view",
]


class QueryRejected(QueryError):
    """The admission queue is full; the query was not enqueued."""


class _Flight:
    """One in-flight block read: the leader fills it, waiters share it."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        # Allocated by the first query that waits on this flight (under
        # the coordinator lock); most flights are never awaited.
        self.event: threading.Event | None = None
        self.result = None
        self.error: BaseException | None = None


class ScanCoordinator:
    """Single-flight block fetches over one block store.

    Concurrent requests for the same block code are collapsed into one
    store read: the first requester (the *leader*) performs the fetch,
    every other requester blocks on the flight's event and receives the
    same (immutable) payload.  Sequential re-reads are not deduplicated here
    — that is the caching device's job — so the coordinator adds no
    state beyond the currently in-flight reads.

    Shard awareness: flights are keyed on ``(namespace, shard, code)``
    — the store's ``shard_of`` placement when it has one — so the
    coordinator's bookkeeping mirrors the storage topology and
    per-shard fetch counts fall out for free (``fetches_by_shard``).

    Namespace isolation: ``namespace`` (the cluster tier's
    ``tenant/dataset`` routing key, ``None`` for a single-tenant
    service) is part of the flight key, so two tenants whose datasets
    happen to reuse block codes never share a single-flight read — one
    tenant's in-flight failure must not propagate into another's
    answer, and payloads from different namespaces are different data.

    Attributes:
        fetches: Block reads this coordinator issued to the store.
        shared: Requests served by piggy-backing on another query's
            in-flight read (each one is a device/pool read avoided).
        fetches_by_shard: Issued reads per shard index.
    """

    def __init__(self, store, namespace: str | None = None) -> None:
        self._store = store
        self.namespace = namespace
        self._shard_of = getattr(store, "shard_of", None) or np.zeros_like
        self._lock = watched_lock("query.scan")
        self._inflight: dict[tuple, _Flight] = {}
        self.fetches = 0
        self.shared = 0
        self.fetches_by_shard: dict[int, int] = {}

    def read_many(self, codes) -> BlockGroup:
        """Group read with coalescing *and* in-flight deduplication.

        Blocks nobody is currently reading are led as **one** group
        read of the store (a single ``read_many``, split per shard
        group by the device); blocks another query is already reading
        are awaited and shared instead of re-read, and come last in the
        group handed back.  This is every served query's I/O path — a
        scalar query's block set and a batch's alike coalesce their own
        reads while still piggy-backing on concurrent queries' flights;
        a single block is a group of one.
        """
        ids = list(dict.fromkeys(np.asarray(codes, dtype=np.intp).tolist()))
        shards = self._shard_of(np.array(ids, dtype=np.intp)).tolist()
        fresh: dict[int, tuple[tuple, _Flight]] = {}
        waits: list[tuple[int, _Flight]] = []
        with self._lock:
            for code, shard in zip(ids, shards):
                key = (self.namespace, shard, code)
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                    fresh[code] = (key, flight)
                else:
                    if flight.event is None:
                        flight.event = threading.Event()
                    waits.append((code, flight))
        groups = []
        if fresh:
            try:
                group = self._store.read_many(np.array(list(fresh), np.intp))
                for code, *result in zip(
                    group.codes.tolist(), group.payloads, group.lens.tolist()
                ):
                    fresh[code][1].result = result
                groups.append(group)
            except BaseException as exc:
                for _, flight in fresh.values():
                    flight.error = exc
                raise
            finally:
                with self._lock:
                    for key, flight in fresh.values():
                        self._inflight.pop(key, None)
                        self.fetches += 1
                        self.fetches_by_shard[key[1]] = (
                            self.fetches_by_shard.get(key[1], 0) + 1
                        )
                # Popped under the lock above: no new waiter can attach.
                for _, flight in fresh.values():
                    if flight.event is not None:
                        flight.event.set()
            obs_counter("query.service.scan.fetches").inc(len(fresh))
        for code, flight in waits:
            flight.event.wait()
            with self._lock:
                self.shared += 1
            obs_counter("query.service.scan.shared").inc()
            if flight.error is not None:
                raise flight.error
            payload, n = flight.result
            groups.append(BlockGroup(np.array([code]), [payload], np.array([n])))
        return BlockGroup.join(groups)

    def stats(self) -> dict:
        """Snapshot: issued fetches (total and per shard) and
        piggy-backed (saved) reads."""
        with self._lock:
            return {
                "fetches": self.fetches,
                "shared": self.shared,
                "fetches_by_shard": dict(self.fetches_by_shard),
            }


class SharedScanStore(TensorReads):
    """Read-only block-store view whose reads go through a coordinator.

    Block reads (:meth:`read_many`, the shared
    :class:`~repro.storage.blockstore.TensorReads` kernel's group read
    and so what ``fetch_blocks``, ``fetch_block`` and ``gather`` go
    through) ride :class:`ScanCoordinator`; every other attribute
    (``allocation``, ``device``, ``io_snapshot``, ...) delegates to the
    wrapped store.  Mutating operations must go to the underlying store
    directly.
    """

    def __init__(
        self,
        store,
        coordinator: ScanCoordinator | None = None,
        namespace: str | None = None,
    ) -> None:
        self._store = store
        self.coordinator = coordinator or ScanCoordinator(
            store, namespace=namespace
        )

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    def read_many(self, codes) -> BlockGroup:
        """Coalesced, single-flighted group read."""
        return self.coordinator.read_many(codes)


def shared_scan_view(
    engine: ProPolyneEngine, namespace: str | None = None
) -> ProPolyneEngine:
    """A shallow engine view whose storage reads are single-flighted.

    The view shares every populated structure (coefficients on disk,
    block norms, filter, levels) with ``engine``; only ``store`` is
    replaced by a :class:`SharedScanStore`.  Use it for concurrent
    *read* traffic; route updates (``insert``) to the original engine.
    ``namespace`` scopes the coordinator's flight keys (the cluster
    tier passes its ``tenant/dataset`` routing key).
    """
    view = copy.copy(engine)
    view.store = SharedScanStore(engine.store, namespace=namespace)
    return view


class ProgressiveStream:
    """Progressive estimates produced by a service worker, consumable as
    an iterator while the evaluation is still running.

    Iterating yields every
    :class:`~repro.query.propolyne.ProgressiveEstimate` in evaluation
    order (blocking until the worker produces the next one); ``future``
    resolves to the *final* estimate once the evaluation completes, so
    callers that only want the fully-converged answer can wait on
    :meth:`result` without consuming the stream.
    """

    _DONE = object()

    def __init__(self) -> None:
        self._items: queue.SimpleQueue = queue.SimpleQueue()
        self.future: Future = Future()

    def __iter__(self) -> Iterator[ProgressiveEstimate]:
        while True:
            item = self._items.get()
            if item is self._DONE:
                error = self.future.exception()
                if error is not None:
                    raise error
                return
            yield item

    def result(self, timeout: float | None = None) -> ProgressiveEstimate:
        """The final estimate (blocks until the evaluation finishes)."""
        return self.future.result(timeout)

    # -- producer side (service worker) ---------------------------------

    def _emit(self, estimate: ProgressiveEstimate) -> None:
        self._items.put(estimate)

    def _finish(self, final, error: BaseException | None) -> None:
        if error is not None:
            self.future.set_exception(error)
        else:
            self.future.set_result(final)
        self._items.put(self._DONE)


class _Task:
    """One admitted query: kind, payload, deadline, result sink, trace."""

    __slots__ = (
        "kind", "query", "future", "stream", "deadline_s", "as_of",
        "handoff",
    )

    def __init__(
        self, kind, query, future, stream, deadline_s=None, as_of=None,
    ) -> None:
        self.kind = kind
        self.query = query
        self.future = future
        self.stream = stream
        self.deadline_s = deadline_s
        self.as_of = as_of

    def fail(self, error: BaseException) -> None:
        """Deliver ``error`` to whoever waits on this task."""
        if self.stream is not None:
            self.stream._finish(None, error)
        else:
            self.future.set_exception(error)


_SHUTDOWN = object()


class QueryService:
    """Thread-pooled front end over a ProPolyne engine.

    Args:
        engine: The populated engine to serve.  The service evaluates
            through :func:`shared_scan_view`, so concurrent queries
            deduplicate in-flight block reads.
        workers: Worker-thread count (>= 1).
        queue_depth: Admission-queue bound; submissions beyond
            ``queue_depth`` pending tasks raise :class:`QueryRejected`
            (unless submitted with ``block=True``).
        default_deadline_s: Deadline applied to
            :meth:`submit_degradable` tasks that do not carry their
            own; ``None`` means no deadline.
        namespace: Optional scan-coordination namespace (the cluster
            tier's ``tenant/dataset`` routing key) scoping this
            service's single-flight keys, so co-located tenants never
            share in-flight reads.

    Metrics: ``query.service.submitted`` / ``completed`` / ``rejected``
    / ``degraded`` counters, a ``query.service.queue_depth`` gauge, the
    ``query.service.latency`` span (admission to completion, holding
    ``query.service.queue_wait``), ``query.service.batch.submitted`` for
    batch tasks, and ``query.service.scan.fetches`` / ``scan.shared``
    from the coordinator.
    """

    def __init__(
        self,
        engine: ProPolyneEngine,
        workers: int = 4,
        queue_depth: int = 64,
        default_deadline_s: float | None = None,
        namespace: str | None = None,
    ) -> None:
        if workers < 1:
            raise QueryError(f"worker count must be >= 1, got {workers}")
        if queue_depth < 1:
            raise QueryError(
                f"admission queue depth must be >= 1, got {queue_depth}"
            )
        self.namespace = namespace
        self.engine = shared_scan_view(engine, namespace=namespace)
        self.coordinator = self.engine.store.coordinator
        self._batcher = BatchEvaluator(self.engine)
        if default_deadline_s is not None and default_deadline_s < 0:
            raise QueryError(
                f"default deadline must be >= 0, got {default_deadline_s}"
            )
        self.default_deadline_s = default_deadline_s
        self.queue_depth = queue_depth
        self.rejected = 0
        self.completed = 0
        self.degraded = 0
        self._tasks: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._closed = False
        # Workers that have not yet taken their shutdown sentinel; at
        # zero nothing will ever take another task off the queue.
        self._live_workers = workers
        self._lock = watched_lock("query.service")
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"query-service-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------

    def submit_exact(
        self, query: RangeSumQuery, block: bool = False,
        as_of: int | None = None,
    ) -> Future:
        """Enqueue an exact range-sum; the future resolves to its value.

        Args:
            query: The range-sum to evaluate.
            block: When True, wait for queue space instead of raising
                :class:`QueryRejected` on overload.
            as_of: Optional storage epoch to evaluate against (the
                engine must have versioning enabled).
        """
        task = _Task("exact", query, Future(), None, as_of=as_of)
        self._admit(task, block)
        return task.future

    def submit_degradable(
        self,
        query: RangeSumQuery,
        deadline_s: float | None = None,
        block: bool = False,
        as_of: int | None = None,
    ) -> Future:
        """Enqueue a degradation-aware exact query; the future resolves
        to a :class:`~repro.query.propolyne.QueryOutcome`.

        Unlike :meth:`submit_exact` — which propagates storage failures
        as exceptions — this path downgrades to the best progressive
        estimate computed so far when the deadline elapses or storage
        becomes unavailable, flagged with ``degraded=True`` and a finite
        guaranteed error bound.  On the no-fault path the outcome's
        value is bitwise-identical to :meth:`submit_exact`'s.

        Args:
            query: The range-sum to evaluate.
            deadline_s: Per-query allowance on the installed clock,
                measured from evaluation start (defaults to the service's
                ``default_deadline_s``).
            block: When True, wait for queue space instead of raising
                :class:`QueryRejected` on overload.
            as_of: Optional storage epoch to evaluate against (the
                engine must have versioning enabled).

        Every resolved outcome carries its
        :class:`~repro.query.explain.QueryProvenance` audit record —
        the epoch answered, blocks/shards planned, breaker states and
        cache generations at answer time.
        """
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        task = _Task(
            "degradable", query, Future(), None, deadline_s, as_of=as_of,
        )
        self._admit(task, block)
        return task.future

    def submit_progressive(
        self, query: RangeSumQuery, block: bool = False
    ) -> ProgressiveStream:
        """Enqueue a progressive range-sum and return its estimate stream.

        Args:
            query: The range-sum to evaluate.
            block: When True, wait for queue space instead of raising
                :class:`QueryRejected` on overload.
        """
        stream = ProgressiveStream()
        task = _Task("progressive", query, stream.future, stream)
        self._admit(task, block)
        return stream

    def submit_batch(
        self, queries: list[RangeSumQuery], block: bool = False
    ) -> Future:
        """Enqueue a whole batch as one task; the future resolves to the
        list of exact answers (batch order).

        The batch occupies a single worker slot and runs through the
        shared :class:`~repro.query.batch.BatchEvaluator` (one coalesced
        fetch per batch, vectorized segment dots); each answer is
        bitwise-identical to :meth:`submit_exact` on the same query.

        Args:
            queries: Non-empty list of range-sums to evaluate together.
            block: When True, wait for queue space instead of raising
                :class:`QueryRejected` on overload.
        """
        task = _Task("batch", list(queries), Future(), None)
        self._admit(task, block)
        obs_counter("query.service.batch.submitted").inc()
        return task.future

    def run_exact(self, queries: list[RangeSumQuery]) -> list[float]:
        """Convenience: submit every query (waiting for queue space) and
        return their answers in order."""
        futures = [self.submit_exact(q, block=True) for q in queries]
        return [f.result() for f in futures]

    def _admit(self, task: _Task, block: bool) -> None:
        with self._lock:
            if self._closed:
                raise QueryError("query service is closed")
        # The latency span starts here, queue wait included.
        task.handoff = handoff()
        try:
            if block:
                self._tasks.put(task)
            else:
                self._tasks.put_nowait(task)
        except queue.Full:
            with self._lock:
                self.rejected += 1
            obs_counter("query.service.rejected").inc()
            raise QueryRejected(
                f"admission queue full ({self.queue_depth} pending); "
                f"retry later or raise queue_depth"
            ) from None
        # close() may have run between the check and the put, leaving
        # the task behind the shutdown sentinels.  The last worker out
        # fails what it finds queued; a put that lands later still is
        # failed here.
        with self._lock:
            unserved = self._live_workers == 0
        if unserved:
            self._fail_unserved()
        obs_counter("query.service.submitted").inc()
        obs_gauge("query.service.queue_depth").set(self._tasks.qsize())

    def _fail_unserved(self) -> None:
        """Fail every task still queued once no worker is left."""
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                return
            task.fail(QueryError("query service is closed"))

    # -- worker side -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is _SHUTDOWN:
                with self._lock:
                    self._live_workers -= 1
                    last_out = self._live_workers == 0
                if last_out:
                    self._fail_unserved()
                return
            with span("query.service.latency", after=task.handoff):
                with span("query.service.queue_wait", after=task.handoff):
                    pass
                self._serve(task)

    def _serve(self, task: _Task) -> None:
        try:
            if task.kind == "exact":
                value = self.engine.evaluate_exact(
                    task.query, as_of=task.as_of
                )
                task.future.set_result(value)
            elif task.kind == "batch":
                answers = self._batcher.evaluate_exact(task.query)
                task.future.set_result(answers)
            elif task.kind == "degradable":
                outcome: QueryOutcome = self.engine.evaluate_degradable(
                    task.query,
                    deadline_s=task.deadline_s,
                    as_of=task.as_of,
                )
                if outcome.degraded:
                    with self._lock:
                        self.degraded += 1
                    obs_counter("query.service.degraded").inc()
                # Every degradable outcome leaves the service auditable:
                # no I/O, just the memoized plan plus breaker/cache
                # snapshots, and the trace this span belongs to.
                outcome = attach_provenance(
                    self.engine, task.query, outcome, as_of=task.as_of
                )
                task.future.set_result(outcome)
            else:
                final = None
                for estimate in self.engine.evaluate_progressive(task.query):
                    final = estimate
                    task.stream._emit(estimate)
                task.stream._finish(final, None)
        except BaseException as exc:  # deliver, never kill the worker
            task.fail(exc)
        finally:
            with self._lock:
                self.completed += 1
            obs_counter("query.service.completed").inc()
            obs_gauge("query.service.queue_depth").set(self._tasks.qsize())

    # -- lifecycle -------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; drain pending tasks, then stop workers.

        A submission that raced this call and landed behind the
        shutdown sentinels fails with ``QueryError`` instead of waiting
        for a worker that has gone.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._tasks.put(_SHUTDOWN)
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def scan_stats(self) -> dict:
        """Shared-scan counters."""
        return self.coordinator.stats()
