"""Data-owning backend: one engine + query/ingest services per namespace.

In the Murder shape, a backend node B\\ :sub:`k` *owns* the data of the
namespaces routed to it — everything stateful lives here.  Each
namespace (``tenant/dataset``) gets its own
:class:`~repro.query.propolyne.ProPolyneEngine` on its own storage
stack (co-located tenants never share a cached block or an in-flight
read), a :class:`~repro.query.service.QueryService`
over that engine, and — lazily, on first ingest session — an
:class:`~repro.streams.ingest.IngestService` with its own bounded
commit queue.

The node itself adds no query semantics: answers through a backend are
bitwise-identical to answers from a standalone service on the same
engine.  What it adds is *containment* — per-namespace admission
queues, breakers and fault domains — plus the ``cluster.backend.*``
metrics the frontend's routing decisions are audited against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.errors import AIMSError, QueryError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.query.propolyne import ProPolyneEngine
from repro.query.service import QueryService
from repro.streams.ingest import IngestService

__all__ = ["BackendNode"]


class _Namespace:
    """One namespace's stateful residents on a backend."""

    __slots__ = ("engine", "service", "ingest")

    def __init__(self, engine, service) -> None:
        self.engine = engine
        self.service = service
        self.ingest: IngestService | None = None


class BackendNode:
    """One data-owning cluster backend.

    Args:
        node_id: Stable identifier; the frontend's ring hashes it, so
            renaming a node remaps its namespaces.
        workers: Query worker threads per namespace service.
        queue_depth: Admission-queue bound per namespace service
            (overload rejects with
            :class:`~repro.query.service.QueryRejected`).
        max_degree: Engine polynomial degree (as the facade's config).
        block_size: Per-axis storage block size.
        storage_factory: Zero-argument callable returning a fresh
            :class:`~repro.storage.device.StorageSpec` per populated
            namespace — a *factory* because stateful spec members
            (breakers, fault plans) must never be shared between
            namespaces.  ``None`` → plain unreplicated spec.
        default_deadline_s: Default degradable-query deadline.
        ingest_queue: Commit-queue capacity of each namespace's lazy
            :class:`~repro.streams.ingest.IngestService`.
        ingest_batch: Its group-commit batch size.
    """

    def __init__(
        self,
        node_id: str,
        workers: int = 2,
        queue_depth: int = 64,
        max_degree: int = 2,
        block_size: int = 7,
        storage_factory: Callable | None = None,
        default_deadline_s: float | None = None,
        ingest_queue: int = 4096,
        ingest_batch: int = 256,
    ) -> None:
        self.node_id = str(node_id)
        self.workers = workers
        self.queue_depth = queue_depth
        self.max_degree = max_degree
        self.block_size = block_size
        self.storage_factory = storage_factory
        self.default_deadline_s = default_deadline_s
        self.ingest_queue = ingest_queue
        self.ingest_batch = ingest_batch
        self._spaces: dict[str, _Namespace] = {}
        self._closed = False
        self._lock = watched_lock("cluster.backend")

    # -- namespace lifecycle -------------------------------------------

    def populate(self, namespace: str, cube, storage=None) -> ProPolyneEngine:
        """Build a namespace's engine and query service on this node.

        ``storage`` overrides the node's ``storage_factory`` for this
        namespace (e.g. the failover drill populates one tenant with a
        replicated, fault-planned spec).
        """
        with self._lock:
            if self._closed:
                raise QueryError(f"backend {self.node_id} is closed")
            if namespace in self._spaces:
                raise AIMSError(
                    f"namespace {namespace!r} already populated on "
                    f"backend {self.node_id}"
                )
        if storage is None and self.storage_factory is not None:
            storage = self.storage_factory()
        engine = ProPolyneEngine(
            np.asarray(cube, dtype=float),
            max_degree=self.max_degree,
            block_size=self.block_size,
            storage=storage,
        )
        service = QueryService(
            engine,
            workers=self.workers,
            queue_depth=self.queue_depth,
            default_deadline_s=self.default_deadline_s,
        )
        with self._lock:
            if namespace in self._spaces:  # lost a populate race
                service.close()
                raise AIMSError(
                    f"namespace {namespace!r} already populated on "
                    f"backend {self.node_id}"
                )
            self._spaces[namespace] = _Namespace(engine, service)
            n = len(self._spaces)
        obs_counter("cluster.backend.populated").inc()
        obs_gauge("cluster.backend.namespaces").set(n)
        return engine

    def _space(self, namespace: str) -> _Namespace:
        with self._lock:
            try:
                return self._spaces[namespace]
            except KeyError:
                raise QueryError(
                    f"namespace {namespace!r} not populated on backend "
                    f"{self.node_id} (membership changed without "
                    f"re-populating?)"
                ) from None

    def namespaces(self) -> list[str]:
        """Namespaces this node owns (sorted)."""
        with self._lock:
            return sorted(self._spaces)

    def engine(self, namespace: str) -> ProPolyneEngine:
        """A namespace's engine (updates/inserts go here)."""
        return self._space(namespace).engine

    # -- query path ----------------------------------------------------

    def submit_exact(self, namespace: str, query, block: bool = False,
                     as_of: int | None = None):
        """Proxy an exact range-sum into the namespace's service."""
        obs_counter("cluster.backend.queries").inc()
        return self._space(namespace).service.submit_exact(
            query, block=block, as_of=as_of
        )

    def submit_degradable(self, namespace: str, query, block: bool = False,
                          deadline_s: float | None = None,
                          as_of: int | None = None):
        """Proxy a degradation-aware query into the namespace's service."""
        obs_counter("cluster.backend.queries").inc()
        return self._space(namespace).service.submit_degradable(
            query, deadline_s=deadline_s, block=block, as_of=as_of,
        )

    def submit_batch(self, namespace: str, queries, block: bool = False):
        """Proxy a whole batch (one worker slot) into the namespace's
        service."""
        obs_counter("cluster.backend.queries").inc()
        return self._space(namespace).service.submit_batch(
            queries, block=block
        )

    # -- ingest path ---------------------------------------------------

    def ingest_service(self, namespace: str) -> IngestService:
        """The namespace's ingest service (created and started on first
        use — backends without write traffic pay no committer thread)."""
        space = self._space(namespace)
        with self._lock:
            if space.ingest is None:
                space.ingest = IngestService(
                    space.engine,
                    queue_capacity=self.ingest_queue,
                    commit_batch=self.ingest_batch,
                )
                obs_counter("cluster.backend.ingest_services").inc()
        return space.ingest.start()

    def open_session(self, namespace: str, session_id: str, sampler,
                     to_point, weight_of=None):
        """Open an ingest session feeding the namespace's engine."""
        return self.ingest_service(namespace).open_session(
            session_id, sampler, to_point, weight_of
        )

    # -- introspection / lifecycle -------------------------------------

    def stats(self) -> dict:
        """Per-namespace service/scan/ingest counters for operators."""
        with self._lock:
            spaces = dict(self._spaces)
        out: dict = {"node_id": self.node_id, "namespaces": {}}
        for namespace, space in sorted(spaces.items()):
            entry = {
                "completed": space.service.completed,
                "rejected": space.service.rejected,
                "degraded": space.service.degraded,
                "scan": space.service.scan_stats(),
            }
            if space.ingest is not None:
                entry["ingest"] = {
                    "commits": space.ingest.commits,
                    "committed_points": space.ingest.committed_points,
                    "failed_batches": len(space.ingest.failed_batches),
                }
            out["namespaces"][namespace] = entry
        return out

    def close(self) -> None:
        """Stop every namespace's services and release storage
        (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            spaces, self._spaces = self._spaces, {}
        for space in spaces.values():
            if space.ingest is not None:
                space.ingest.stop()
            space.service.close()
            store = getattr(space.engine, "store", None)
            close = getattr(store, "close", None)
            if close is not None:
                close()
        obs_gauge("cluster.backend.namespaces").set(0)

    def __enter__(self) -> "BackendNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"BackendNode({self.node_id!r}, namespaces={len(self._spaces)})"
