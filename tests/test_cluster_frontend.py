"""The cluster tier end to end: routing, quotas, and statelessness.

A :class:`~repro.cluster.frontend.ClusterFrontend` holds no data: two
frontends over the same backends compute identical routing tables, a
tenant at its quota is rejected before its work touches a backend, and
every namespace's exact answers are bitwise-equal to evaluating the
same queries on a standalone engine.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    BackendNode,
    ClusterFrontend,
    QuotaExceeded,
    TenantQuota,
    namespace_key,
)
from repro.core.errors import AIMSError, QueryError
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec


def small_cube(seed=7, shape=(8, 8)):
    rng = np.random.default_rng(seed)
    return rng.poisson(3.0, shape).astype(float)


def queries(n=6):
    return [
        RangeSumQuery.count([(i, i + 2), (0, 6)]) for i in range(n)
    ]


def make_cluster(backends=2, **kwargs):
    nodes = [
        BackendNode(f"backend-{i}", workers=2, queue_depth=32)
        for i in range(backends)
    ]
    return ClusterFrontend(nodes, **kwargs)


class TestNamespaceKey:
    def test_key_format(self):
        assert namespace_key("acme", "gloves") == "acme/gloves"

    def test_tenant_names_cannot_contain_slash(self):
        with pytest.raises(AIMSError):
            namespace_key("a/b", "d")


class TestRouting:
    def test_two_frontends_compute_the_same_table(self):
        nodes = [BackendNode(f"backend-{i}") for i in range(3)]
        pairs = [(f"tenant-{t}", f"ds-{d}")
                 for t in range(10) for d in range(4)]
        try:
            a = ClusterFrontend(nodes, vnodes=64)
            b = ClusterFrontend(reversed(nodes), vnodes=64)
            for tenant, dataset in pairs:
                assert (a.route(tenant, dataset)
                        is b.route(tenant, dataset))
        finally:
            for node in nodes:
                node.close()

    def test_populate_routes_to_the_owning_backend(self):
        with make_cluster(backends=2) as frontend:
            frontend.populate("acme", "gloves", small_cube())
            owner = frontend.route("acme", "gloves")
            assert "acme/gloves" in owner.namespaces()
            others = [
                frontend._backends[n] for n in frontend.backends()
                if frontend._backends[n] is not owner
            ]
            for backend in others:
                assert "acme/gloves" not in backend.namespaces()

    def test_exact_answers_match_a_standalone_engine(self):
        cube = small_cube()
        # Same engine config as the backends build (max_degree=2).
        reference = ProPolyneEngine(cube, max_degree=2)
        expected = [reference.evaluate_exact(q) for q in queries()]
        with make_cluster(backends=2) as frontend:
            frontend.populate("acme", "gloves", cube)
            got = [
                frontend.submit_exact("acme", "gloves", q).result()
                for q in queries()
            ]
        assert got == expected  # float equality, not approx

    def test_unknown_namespace_raises_query_error(self):
        with make_cluster(backends=2) as frontend:
            with pytest.raises(QueryError):
                frontend.submit_exact("ghost", "nope", queries()[0])

    def test_duplicate_backend_ids_rejected(self):
        nodes = [BackendNode("same"), BackendNode("same")]
        try:
            with pytest.raises(AIMSError):
                ClusterFrontend(nodes)
        finally:
            for node in nodes:
                node.close()

    def test_empty_backend_set_rejected(self):
        with pytest.raises(AIMSError):
            ClusterFrontend([])


class TestMembership:
    def test_remove_returns_the_handle_and_remaps_only_its_keys(self):
        pairs = [(f"tenant-{t}", f"ds-{d}")
                 for t in range(12) for d in range(4)]
        with make_cluster(backends=3) as frontend:
            before = {
                pair: frontend.route(*pair).node_id for pair in pairs
            }
            removed = frontend.remove_backend("backend-0")
            assert removed.node_id == "backend-0"
            for pair in pairs:
                after = frontend.route(*pair).node_id
                if before[pair] != "backend-0":
                    assert after == before[pair]
                else:
                    assert after != "backend-0"
            # Rejoining restores the original table exactly.
            frontend.add_backend(removed)
            for pair in pairs:
                assert frontend.route(*pair).node_id == before[pair]

    def test_add_existing_and_remove_missing_rejected(self):
        with make_cluster(backends=2) as frontend:
            with pytest.raises(AIMSError):
                frontend.remove_backend("backend-9")
            with pytest.raises(AIMSError):
                frontend.add_backend(frontend._backends["backend-0"])


class TestQuotas:
    def test_quota_validates(self):
        with pytest.raises(AIMSError):
            TenantQuota(max_inflight=0)

    def test_tenant_at_quota_is_rejected(self):
        with make_cluster(backends=1) as frontend:
            frontend.populate("noisy", "flood", small_cube())
            frontend.set_quota("noisy", TenantQuota(max_inflight=2))
            batch = queries() * 8  # slow enough to stay in flight
            futures = []
            with pytest.raises(QuotaExceeded):
                for _ in range(64):
                    futures.append(
                        frontend.submit_batch("noisy", "flood", batch)
                    )
            assert len(futures) >= 2
            for future in futures:
                future.result()
            # Resolved futures release their slots.
            assert frontend.inflight("noisy") == 0
            frontend.submit_batch("noisy", "flood", batch).result()

    def test_other_tenants_are_unaffected_by_a_full_quota(self):
        with make_cluster(backends=1) as frontend:
            frontend.populate("noisy", "flood", small_cube())
            frontend.populate("calm", "data", small_cube())
            frontend.set_quota("noisy", TenantQuota(max_inflight=1))
            held = frontend.submit_batch("noisy", "flood", queries() * 8)
            for q in queries():
                frontend.submit_exact("calm", "data", q).result()
            held.result()

    def test_clearing_a_quota_restores_the_default(self):
        with make_cluster(backends=1) as frontend:
            frontend.set_quota("t", TenantQuota(max_inflight=1))
            assert frontend.stats()["quotas"] == {"t": 1}
            frontend.set_quota("t", None)
            assert frontend.stats()["quotas"] == {}

    def test_slot_is_released_before_the_future_resolves(self):
        # A release slowed well past the answer: a caller holding the
        # result must still find the slot free, whichever thread runs
        # the release.
        with make_cluster(backends=1) as frontend:
            frontend.populate("noisy", "flood", small_cube())
            release = frontend._release

            def slow_release(tenant):
                time.sleep(0.2)
                release(tenant)

            frontend._release = slow_release
            frontend.submit_exact("noisy", "flood", queries()[0]).result()
            assert frontend.inflight("noisy") == 0

    def test_a_helped_result_finds_its_slot_released(self):
        # The backend's one worker is held, so the caller runs its own
        # task: the release then runs on the caller's thread, and still
        # before the caller's future resolves.
        with make_cluster(backends=1) as frontend:
            frontend.populate("noisy", "flood", small_cube())
            service = frontend.route("noisy", "flood")._space(
                namespace_key("noisy", "flood")
            ).service
            evaluate = service.engine.evaluate_exact
            held, release = threading.Barrier(3), threading.Event()
            ran_on = []

            def gated(q, as_of=None):
                name = threading.current_thread().name
                if name.startswith("query-"):
                    held.wait(timeout=60)
                    release.wait(timeout=60)
                else:
                    ran_on.append(name)
                return evaluate(q, as_of=as_of)

            service.engine.evaluate_exact = gated
            # Submitted to the service itself: they take no quota slot.
            blockers = [service.submit_exact(queries()[0]) for _ in range(2)]
            held.wait(timeout=60)
            release_slot = frontend._release

            def slow_release(tenant):
                time.sleep(0.2)
                release_slot(tenant)

            frontend._release = slow_release
            try:
                frontend.submit_exact(
                    "noisy", "flood", queries()[1]
                ).result(timeout=30)
                assert frontend.inflight("noisy") == 0
            finally:
                release.set()
            for future in blockers:
                future.result(timeout=60)
            assert ran_on == [threading.current_thread().name]

    def test_failed_submission_releases_the_slot(self):
        with make_cluster(backends=1) as frontend:
            frontend.set_quota("ghost", TenantQuota(max_inflight=1))
            with pytest.raises(QueryError):
                frontend.submit_exact("ghost", "nope", queries()[0])
            assert frontend.inflight("ghost") == 0


class TestStatelessness:
    def test_namespaces_on_one_backend_have_distinct_stores(self):
        # Co-located tenants share no store and no cache, so neither a
        # cached block nor an in-flight read crosses namespaces.
        node = BackendNode(
            "backend-0", workers=2, queue_depth=32,
            storage_factory=lambda: StorageSpec(cache_blocks=8),
        )
        with ClusterFrontend([node]) as frontend:
            frontend.populate("acme", "gloves", small_cube())
            frontend.populate("initech", "gloves", small_cube())
            spaces = [
                node._space(key) for key in ("acme/gloves", "initech/gloves")
            ]
            stores = [space.service.engine.store for space in spaces]
            assert stores[0] is not stores[1]
            assert stores[0].cache is not stores[1].cache
            assert None not in (stores[0].cache, stores[1].cache)

    def test_stats_expose_the_whole_tier(self):
        with make_cluster(backends=2) as frontend:
            frontend.populate("acme", "gloves", small_cube())
            stats = frontend.stats()
            assert stats["backends"] == ["backend-0", "backend-1"]
            assert set(stats["per_backend"]) == {"backend-0", "backend-1"}
            assert stats["default_quota"] is None
