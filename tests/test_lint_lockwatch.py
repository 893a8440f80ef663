"""Tests for the runtime lock-order detector (``repro.lint.lockwatch``).

The centerpiece is the inversion test: one code path takes A then B,
another takes B then A — a latent deadlock whether or not the schedules
ever collide.  The watcher must report exactly that cycle and carry the
acquisition stack of *both* offending edges, because a report naming
only one side is not actionable.

Every deliberate cycle here is built on a private graph, and the
watcher's on/off state is only ever changed through ``monkeypatch``:
the process-wide graph is the ``REPRO_LOCKWATCH=1`` suite run's gate
(``tests/conftest.py``), so a test must neither switch the watcher off
for the tests after it nor leave a cycle of its own in that graph.
"""

import os
import threading

import pytest

from repro.lint import lockwatch
from repro.lint.lockwatch import (
    InstrumentedLock,
    LockOrderError,
    LockOrderGraph,
    watched_lock,
)


@pytest.fixture
def watcher():
    """A private ordering graph and a factory of locks feeding it."""
    graph = LockOrderGraph()

    def lock(name):
        return InstrumentedLock(name, graph)

    lock.graph = graph
    return lock


class TestFastPath:
    def test_disabled_watcher_hands_out_plain_locks(self, monkeypatch):
        monkeypatch.delenv(lockwatch.ENV_FLAG, raising=False)
        lock = watched_lock("storage.test")
        assert type(lock) is type(threading.Lock())
        monkeypatch.setenv(lockwatch.ENV_FLAG, "1")
        assert isinstance(watched_lock("storage.test"), InstrumentedLock)

    def test_env_flag_controls_the_default(self, monkeypatch):
        monkeypatch.setenv(lockwatch.ENV_FLAG, "1")
        assert lockwatch.enabled()
        monkeypatch.setenv(lockwatch.ENV_FLAG, "0")
        assert not lockwatch.enabled()
        monkeypatch.delenv(lockwatch.ENV_FLAG)
        assert not lockwatch.enabled()


class TestInversionDetection:
    def test_ab_then_ba_is_reported_with_both_stacks(self, watcher):
        a = watcher("test.a")
        b = watcher("test.b")

        with a:
            with b:
                pass
        assert watcher.graph.violations == []

        with b:
            with a:
                pass

        (violation,) = watcher.graph.violations
        assert set(violation.cycle) == {"test.a", "test.b"}
        report = violation.format()
        assert "lock-order cycle:" in report
        assert "test.a -> test.b" in report
        assert "test.b -> test.a" in report
        # Both edges carry the acquisition stack that created them —
        # this very test function must appear in each.
        assert len(violation.edges) == 2
        for edge in violation.edges:
            assert any(
                "test_ab_then_ba_is_reported_with_both_stacks" in frame
                for frame in edge.stack
            )

    def test_consistent_ordering_stays_clean(self, watcher):
        a = watcher("test.a")
        b = watcher("test.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert watcher.graph.violations == []
        assert watcher.graph.edges() == [("test.a", "test.b")]

    def test_inversion_across_threads_is_detected(self, watcher):
        a = watcher("test.a")
        b = watcher("test.b")
        first_done = threading.Event()

        def order_ab():
            with a:
                with b:
                    pass
            first_done.set()

        def order_ba():
            first_done.wait(5)
            with b:
                with a:
                    pass

        threads = [
            threading.Thread(target=order_ab),
            threading.Thread(target=order_ba),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5)

        assert len(watcher.graph.violations) == 1

    def test_three_lock_cycle(self, watcher):
        a, b, c = (watcher(f"test.{n}") for n in "abc")
        with a, b:
            pass
        with b, c:
            pass
        with c, a:
            pass
        (violation,) = watcher.graph.violations
        assert set(violation.cycle) == {"test.a", "test.b", "test.c"}
        assert len(violation.edges) == 3

    def test_sibling_instances_of_one_site_are_not_a_cycle(self, watcher):
        # Per-shard locks share a site name; nesting two shards' locks
        # is sibling fan-out, not an ordering hazard.
        shard0 = watcher("storage.shard")
        shard1 = watcher("storage.shard")
        with shard0:
            with shard1:
                pass
        assert watcher.graph.violations == []
        assert watcher.graph.edges() == []

    def test_assert_clean_raises_with_the_report(self, watcher):
        a = watcher("test.a")
        b = watcher("test.b")
        with a, b:
            pass
        with b, a:
            pass
        with pytest.raises(LockOrderError) as excinfo:
            watcher.graph.assert_clean()
        assert "test.a" in str(excinfo.value)
        assert "test.b" in str(excinfo.value)

    def test_assert_clean_passes_on_an_empty_graph(self, watcher):
        watcher.graph.assert_clean()


class TestInstrumentedLock:
    def test_context_manager_round_trip(self, watcher):
        lock = watcher("test.cm")
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_non_blocking_acquire_failure_does_not_corrupt_the_stack(
        self, watcher
    ):
        lock = watcher("test.nb")
        other = watcher("test.other")
        lock.acquire()
        try:
            got = lock.acquire(blocking=False)
            assert not got
            # The failed acquire must not have pushed onto the held
            # stack; a subsequent clean nesting should record exactly
            # one edge.
            with other:
                pass
        finally:
            lock.release()
        assert watcher.graph.violations == []

    def test_isolated_graph_instances_do_not_share_edges(self):
        graph = LockOrderGraph()
        graph.record(["x"], "y", ("frame",))
        assert graph.edges() == [("x", "y")]
        assert ("x", "y") not in lockwatch.global_graph().edges()
        graph.record(["y"], "x", ("frame",))
        assert len(graph.violations) == 1


class TestSuiteGraph:
    """Runs after the tests above, which is the point: they leave the
    watcher as ``REPRO_LOCKWATCH`` says and the session graph free of
    their fixtures, so the suite-end gate checks the real stack."""

    def test_watcher_state_and_session_graph_survive_the_tests_above(
        self, monkeypatch
    ):
        assert lockwatch.enabled() == (
            os.environ.get(lockwatch.ENV_FLAG, "") == "1"
        )
        for flag in ("1", "0"):
            monkeypatch.setenv(lockwatch.ENV_FLAG, flag)
            assert lockwatch.enabled() == (flag == "1")
        nodes = {name for edge in lockwatch.global_graph().edges()
                 for name in edge}
        assert not any(name.startswith("test.") for name in nodes)
