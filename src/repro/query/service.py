"""Concurrent query service: thread-pooled ProPolyne evaluation with
admission control.

§3.3.1 asks for evaluation "algorithms which share I/O maximally and
retrieve the most important data first".  :mod:`repro.query.batch` shares
I/O *within* one pre-declared batch; this module serves dynamic traffic
— the north-star workload of many independent callers hitting one cube
at once — through :class:`QueryService`, a thread-pool front end over a
:class:`~repro.query.propolyne.ProPolyneEngine`.  Exact, degradable and
batch queries return :class:`TaskFuture`\\ s, which a blocked waiter
runs itself if no worker has; progressive queries return a
:class:`ProgressiveStream` that yields
:class:`~repro.query.propolyne.ProgressiveEstimate`\\ s as worker
threads produce them.  A bounded admission queue rejects work beyond
``queue_depth`` with :class:`QueryRejected`, so overload degrades into
fast failures instead of unbounded queueing.

Concurrent queries share I/O in the store's block cache, which
single-flights concurrent misses.  Results are bitwise-identical to
single-threaded evaluation on the same engine: translation, planning
and summation are deterministic, and the service only ever *reads*.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from concurrent.futures import Future
from functools import partial
from typing import Iterator

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
from repro.storage.device import PoolStats

__all__ = [
    "ProgressiveStream",
    "QueryRejected",
    "QueryService",
    "TaskFuture",
]


class QueryRejected(QueryError):
    """The admission queue is full; the query was not enqueued."""


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


class TaskFuture(Future):
    """A task's future: :meth:`result` and :meth:`exception` first
    :meth:`help`, so a task no thread has claimed runs on its waiter's
    thread (a helping join).  ``concurrent.futures.wait`` and
    ``as_completed`` do not help; they wait for a worker."""

    def __init__(self, helper=None) -> None:
        super().__init__()
        self._helper = helper

    def help(self) -> None:
        """Claim and run the task here if no thread has (once)."""
        helper, self._helper = self._helper, None
        if helper is not None:
            helper()

    def result(self, timeout=None):
        self.help()
        return super().result(timeout)

    def exception(self, timeout=None):
        self.help()
        return super().exception(timeout)


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


class QueryService:
    """Thread-pooled front end over a ProPolyne engine.

    Args:
        engine: The populated engine to serve; concurrent queries
            share in-flight block reads in its store's cache.
        workers: Worker-thread count (>= 1); a :class:`TaskFuture`'s
            waiter runs its task itself if no worker has claimed it.
        queue_depth: Admission-queue bound on tasks no thread has
            claimed; submissions beyond it raise :class:`QueryRejected`
            (unless submitted with ``block=True``).
        default_deadline_s: Deadline applied to
            :meth:`submit_degradable` tasks that do not carry their
            own; ``None`` means no deadline.

    Metrics: ``query.service.submitted`` / ``completed`` / ``rejected``
    / ``degraded`` counters, a ``query.service.queue_depth`` gauge, the
    ``query.service.latency`` span (admission to completion, holding
    ``query.service.queue_wait``) and ``query.service.batch.submitted``
    for batch tasks.
    """

    def __init__(
        self,
        engine: ProPolyneEngine,
        workers: int = 4,
        queue_depth: int = 64,
        default_deadline_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise QueryError(f"worker count must be >= 1, got {workers}")
        if queue_depth < 1:
            raise QueryError(
                f"admission queue depth must be >= 1, got {queue_depth}"
            )
        self.engine = engine
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
        # Unclaimed tasks; taking one off (worker or waiter) claims it.
        self._pending: deque[_Task] = deque()
        self._closed = False
        self._lock = watched_lock("query.service")
        self._work = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
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
    ) -> TaskFuture:
        """Enqueue an exact range-sum; the future resolves to its value.

        Args:
            query: The range-sum to evaluate.
            block: When True, wait for queue space instead of raising
                :class:`QueryRejected` on overload.
            as_of: Optional storage epoch to evaluate against (the
                engine must have versioning enabled).
        """
        return self._submit("exact", query, block, as_of=as_of)

    def submit_degradable(
        self,
        query: RangeSumQuery,
        deadline_s: float | None = None,
        block: bool = False,
        as_of: int | None = None,
    ) -> TaskFuture:
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
        return self._submit("degradable", query, block, deadline_s, as_of)

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
    ) -> TaskFuture:
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
        future = self._submit("batch", list(queries), block)
        obs_counter("query.service.batch.submitted").inc()
        return future

    def run_exact(self, queries: list[RangeSumQuery]) -> list[float]:
        """Convenience: submit every query (waiting for queue space) and
        return their answers in order."""
        futures = [self.submit_exact(q, block=True) for q in queries]
        return [f.result() for f in futures]

    def _submit(self, kind, query, block, deadline_s=None, as_of=None):
        """Admit a task its waiter may help, and return its future."""
        future = TaskFuture()
        task = _Task(kind, query, future, None, deadline_s, as_of)
        future._helper = partial(self._help, task)
        self._admit(task, block)
        return future

    def _admit(self, task: _Task, block: bool) -> None:
        # The latency span starts here, queue wait included.
        task.handoff = handoff()
        with self._lock:
            while (block and not self._closed
                   and len(self._pending) >= self.queue_depth):
                self._space.wait()
            if self._closed:  # checked in the step that appends
                raise QueryError("query service is closed")
            full = len(self._pending) >= self.queue_depth
            if full:
                self.rejected += 1
            else:
                self._pending.append(task)
                self._work.notify()
        if full:
            obs_counter("query.service.rejected").inc()
            raise QueryRejected(
                f"admission queue full ({self.queue_depth} pending); "
                f"retry later or raise queue_depth"
            )
        obs_counter("query.service.submitted").inc()
        obs_gauge("query.service.queue_depth").set(len(self._pending))

    # -- worker side -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._work.wait()
                if not self._pending:  # closed and drained
                    return
                task = self._pending.popleft()
                self._space.notify()
            self._serve(task)

    def _help(self, task: _Task) -> None:
        """Claim ``task`` if no thread has, and run it on this thread."""
        with self._lock:
            try:
                self._pending.remove(task)
            except ValueError:  # already claimed
                return
            self._space.notify()
        self._serve(task)

    def _serve(self, task: _Task) -> None:
        """Serve one claimed task, on a worker or its waiter's thread."""
        with span("query.service.latency", after=task.handoff):
            with span("query.service.queue_wait", after=task.handoff):
                pass
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
                obs_gauge("query.service.queue_depth").set(len(self._pending))

    # -- lifecycle -------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; workers drain pending tasks, then exit.

        A submission after this call, or one still waiting for queue
        space, raises ``QueryError``; every task admitted before it is
        served.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work.notify_all()
            self._space.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def scan_stats(self) -> dict:
        """The store cache's misses read below it (``fetches``) and
        misses served by another read's flight (``shared``)."""
        cache = self.engine.store.cache
        stats = PoolStats() if cache is None else cache.pool_stats.snapshot()
        return {"fetches": stats.misses, "shared": stats.shared}
