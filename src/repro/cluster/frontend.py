"""Stateless cluster frontend: routing, quotas, admission — no data.

The Murder architecture's frontends F1..Fn hold *no* user data: any
frontend, given the same backend membership, computes the same routing
table (the deterministic :class:`~repro.cluster.ring.HashRing`) and
proxies requests to the data-owning backend.  Everything a
:class:`ClusterFrontend` keeps is reconstructible bookkeeping — the
ring, the backend handles, per-tenant quota settings and in-flight
counts — which is what makes the tier horizontally scalable: add
frontends freely, kill any of them harmlessly.

Statelessness is enforced *by construction*: CI's cluster-boundary
grep forbids this module from constructing engines, query/ingest
services or backend nodes.  The frontend can only route to backends it
was handed.

Admission is layered: the frontend's per-tenant quota (greedy tenants
rejected with :class:`QuotaExceeded` before their work touches a
backend) sits above each namespace service's bounded queue
(:class:`~repro.query.service.QueryRejected`) which sits above the
storage breakers.  A flooding tenant therefore burns its own quota and
its own namespace queue — other tenants are still served, the
isolation property ``tests/test_cluster_frontend.py`` holds
(``test_other_tenants_are_unaffected_by_a_full_quota``).
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass

from repro.core.errors import AIMSError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.query.service import QueryRejected, TaskFuture

from repro.cluster.ring import HashRing

__all__ = [
    "ClusterFrontend",
    "QuotaExceeded",
    "TenantQuota",
    "namespace_key",
]


def namespace_key(tenant: str, dataset: str) -> str:
    """The routing key of a tenant's dataset: ``tenant/dataset``.

    One string, hashed whole by the ring — so a tenant's datasets
    spread over backends independently (no tenant-sized hot node) while
    each dataset has exactly one home.
    """
    if "/" in tenant:
        raise AIMSError(f"tenant names cannot contain '/': {tenant!r}")
    return f"{tenant}/{dataset}"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits enforced at the frontend.

    Attributes:
        max_inflight: Queries a tenant may have in flight (submitted,
            not yet resolved) across all its datasets.  The quota is
            per-frontend: with F frontends a tenant can hold up to
            ``F * max_inflight`` — size accordingly.
    """

    max_inflight: int = 64

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise AIMSError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


class QuotaExceeded(QueryRejected):
    """The tenant is at its in-flight quota; the query was not routed."""


class ClusterFrontend:
    """Stateless router over data-owning :class:`BackendNode`\\ s.

    Args:
        backends: The backend nodes to route over (handles constructed
            elsewhere — this class never builds one).
        vnodes: Virtual nodes per backend on the consistent-hash ring.
        default_quota: Quota applied to tenants without an explicit
            :meth:`set_quota`; ``None`` = unlimited.
    """

    def __init__(self, backends, vnodes: int = 64,
                 default_quota: TenantQuota | None = None) -> None:
        self._backends = {}
        for backend in backends:
            if backend.node_id in self._backends:
                raise AIMSError(
                    f"duplicate backend node_id {backend.node_id!r}"
                )
            self._backends[backend.node_id] = backend
        if not self._backends:
            raise AIMSError("a cluster frontend needs at least one backend")
        self.ring = HashRing(self._backends, vnodes=vnodes)
        self.default_quota = default_quota
        self._quotas: dict[str, TenantQuota] = {}
        self._inflight: dict[str, int] = {}
        self._lock = watched_lock("cluster.frontend")
        obs_gauge("cluster.frontend.backends").set(len(self._backends))

    # -- membership ----------------------------------------------------

    def add_backend(self, backend) -> None:
        """Join a backend; only ≈ ``keys/n`` namespaces remap to it
        (consistent hashing), and remapped namespaces must be
        re-populated on their new home — the ring moves *routing*, not
        data."""
        if backend.node_id in self._backends:
            raise AIMSError(
                f"backend {backend.node_id!r} already registered"
            )
        self._backends[backend.node_id] = backend
        self.ring.add(backend.node_id)
        obs_gauge("cluster.frontend.backends").set(len(self._backends))

    def remove_backend(self, node_id: str):
        """Leave a backend (returns its handle; the caller owns closing
        it).  Only the namespaces it owned remap."""
        if node_id not in self._backends:
            raise AIMSError(f"no backend {node_id!r} registered")
        self.ring.remove(node_id)
        backend = self._backends.pop(node_id)
        obs_gauge("cluster.frontend.backends").set(len(self._backends))
        return backend

    def backends(self) -> list[str]:
        """Registered backend ids (sorted)."""
        return sorted(self._backends)

    def route(self, tenant: str, dataset: str):
        """The backend owning a tenant's dataset (pure ring lookup)."""
        node_id = self.ring.lookup(namespace_key(tenant, dataset))
        obs_counter("cluster.frontend.routed").inc()
        return self._backends[node_id]

    # -- quotas --------------------------------------------------------

    def set_quota(self, tenant: str, quota: TenantQuota | None) -> None:
        """Set (or with ``None`` clear) a tenant's explicit quota."""
        with self._lock:
            if quota is None:
                self._quotas.pop(tenant, None)
            else:
                self._quotas[tenant] = quota

    def inflight(self, tenant: str) -> int:
        """The tenant's current in-flight query count (this frontend)."""
        with self._lock:
            return self._inflight.get(tenant, 0)

    def _acquire(self, tenant: str) -> None:
        with self._lock:
            quota = self._quotas.get(tenant, self.default_quota)
            count = self._inflight.get(tenant, 0)
            if quota is not None and count >= quota.max_inflight:
                obs_counter("cluster.frontend.quota_rejected").inc()
                raise QuotaExceeded(
                    f"tenant {tenant!r} at quota "
                    f"({quota.max_inflight} in flight); retry later"
                )
            self._inflight[tenant] = count + 1

    def _release(self, tenant: str) -> None:
        with self._lock:
            count = self._inflight.get(tenant, 1) - 1
            if count <= 0:
                self._inflight.pop(tenant, None)
            else:
                self._inflight[tenant] = count

    def _routed_submit(self, tenant: str, submit):
        """Quota-guard one submission: acquire before routing, release
        when the backend's future resolves (or the submission itself
        fails).

        The caller gets a frontend-owned future that resolves only
        after the slot is released, so a caller that has its result
        never sees its own query still counted in flight.  Waiting on
        it first helps the backend's future (:class:`TaskFuture`).
        """
        self._acquire(tenant)
        try:
            inner = submit()
        except BaseException:
            self._release(tenant)
            raise
        outer = TaskFuture(inner.help)
        # Running from admission on, so a caller cannot cancel it under
        # ``settle``; the backend's service never cancels ``inner``.
        outer.set_running_or_notify_cancel()

        def settle(done: Future) -> None:
            self._release(tenant)
            exc = done.exception()
            if exc is None:
                outer.set_result(done.result())
            else:
                outer.set_exception(exc)

        inner.add_done_callback(settle)
        return outer

    # -- query path ----------------------------------------------------

    def populate(self, tenant: str, dataset: str, cube, storage=None):
        """Populate a tenant's dataset on its ring-assigned backend."""
        namespace = namespace_key(tenant, dataset)
        return self.route(tenant, dataset).populate(
            namespace, cube, storage=storage
        )

    def submit_exact(self, tenant: str, dataset: str, query,
                     block: bool = False, as_of: int | None = None):
        """Route an exact range-sum; the future resolves to its value."""
        return self._routed_submit(
            tenant,
            lambda: self.route(tenant, dataset).submit_exact(
                namespace_key(tenant, dataset), query, block=block,
                as_of=as_of,
            ),
        )

    def submit_degradable(self, tenant: str, dataset: str, query,
                          block: bool = False,
                          deadline_s: float | None = None,
                          as_of: int | None = None):
        """Route a degradation-aware query; resolves to a
        :class:`~repro.query.propolyne.QueryOutcome`."""
        return self._routed_submit(
            tenant,
            lambda: self.route(tenant, dataset).submit_degradable(
                namespace_key(tenant, dataset), query, block=block,
                deadline_s=deadline_s, as_of=as_of,
            ),
        )

    def submit_batch(self, tenant: str, dataset: str, queries,
                     block: bool = False):
        """Route a whole batch as one backend task (one quota slot)."""
        return self._routed_submit(
            tenant,
            lambda: self.route(tenant, dataset).submit_batch(
                namespace_key(tenant, dataset), queries, block=block
            ),
        )

    def open_session(self, tenant: str, dataset: str, session_id: str,
                     sampler, to_point, weight_of=None):
        """Route an ingest session to the dataset's backend (sessions
        are long-lived; they do not consume query quota)."""
        return self.route(tenant, dataset).open_session(
            namespace_key(tenant, dataset), session_id, sampler,
            to_point, weight_of,
        )

    def engine(self, tenant: str, dataset: str):
        """The owning backend's engine for a dataset (updates go here)."""
        return self.route(tenant, dataset).engine(
            namespace_key(tenant, dataset)
        )

    # -- introspection / lifecycle -------------------------------------

    def stats(self) -> dict:
        """Routing table, quota state, and every backend's counters."""
        with self._lock:
            inflight = dict(self._inflight)
            quotas = {
                tenant: quota.max_inflight
                for tenant, quota in self._quotas.items()
            }
        return {
            "backends": self.backends(),
            "vnodes": self.ring.vnodes,
            "inflight": inflight,
            "quotas": quotas,
            "default_quota": (
                self.default_quota.max_inflight
                if self.default_quota is not None
                else None
            ),
            "per_backend": {
                node_id: backend.stats()
                for node_id, backend in sorted(self._backends.items())
            },
        }

    def close(self) -> None:
        """Close every registered backend (explicit whole-cluster
        teardown; removing a single backend hands its handle back
        instead)."""
        for backend in self._backends.values():
            backend.close()

    def __enter__(self) -> "ClusterFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
