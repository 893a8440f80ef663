"""Unit tests for the ``repro.lint`` rule engine and rule packs.

Every rule gets a positive (violating) and negative (clean) fixture
compiled from source strings — never from repo files, so the tests pin
rule *semantics* independent of the repo's current state.  The fixture
path passed to ``lint_source`` decides the module a snippet pretends to
be, which is how the module-scoped rules are exercised.
"""

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint.analysis import checks
from repro.lint.engine import (
    PARSE_ERROR_RULE,
    LintEngine,
    LintError,
    all_rules,
    get_rule,
)


def findings_for(source, path, rule_id=None):
    rules = [get_rule(rule_id)] if rule_id else None
    return LintEngine(rules).lint_source(textwrap.dedent(source), path)


def ids(findings):
    return [f.rule_id for f in findings]


class TestEngine:
    def test_registry_has_the_advertised_rule_pack(self):
        expected = {
            "layering-middleware-construction",
            "lock-no-blocking",
            "lock-with-only",
            "lock-naming",
            "determinism-reduction",
            "obs-coverage",
        }
        assert {r.rule_id for r in all_rules()} == expected

    def test_unknown_rule_id_raises(self):
        with pytest.raises(LintError):
            get_rule("no-such-rule")

    def test_parse_error_becomes_a_finding(self):
        findings = findings_for("def broken(:\n", "src/repro/x.py")
        assert ids(findings) == [PARSE_ERROR_RULE]
        assert findings[0].format().startswith("src/repro/x.py:1: error:")

    def test_findings_carry_file_line_and_sort_stably(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    time.sleep(1)
        """
        (finding,) = findings_for(
            source, "src/repro/streams/x.py", "lock-no-blocking"
        )
        assert finding.file == "src/repro/streams/x.py"
        assert finding.line == 7
        assert "sleep" in finding.message

    def test_non_src_paths_are_out_of_scope_for_library_rules(self):
        source = "import time\nwith self._lock:\n    time.sleep(1)\n"
        assert findings_for(source, "benchmarks/bench_x.py") == []


class TestSuppression:
    SOURCE = """
    import time

    class C:
        def f(self):
            with self._lock:
                time.sleep(1)  # lint: ignore[lock-no-blocking] — fixture
    """

    def test_same_line_ignore_silences_the_rule(self):
        assert findings_for(self.SOURCE, "src/repro/x.py") == []

    def test_ignore_of_a_different_rule_does_not_silence(self):
        source = self.SOURCE.replace("lock-no-blocking", "lock-naming")
        assert ids(findings_for(source, "src/repro/x.py")) == [
            "lock-no-blocking"
        ]

    def test_file_level_ignore_silences_everywhere(self):
        source = (
            "# lint: ignore-file[lock-no-blocking]\n"
            + textwrap.dedent(self.SOURCE).replace(
                "  # lint: ignore[lock-no-blocking] — fixture", ""
            )
        )
        assert LintEngine().lint_source(source, "src/repro/x.py") == []

    def test_one_comment_silences_several_rules(self):
        # One line can violate several rules; a single comma-separated
        # ignore covers exactly the listed ids.
        source = """
        import time
        import numpy as np

        class C:
            def f(self, a, b):
                with self._lock:
                    time.sleep(np.dot(a, b))  # lint: ignore[lock-no-blocking, determinism-reduction] — fixture
        """
        path = "src/repro/query/x.py"
        assert findings_for(source, path) == []
        partial = source.replace(", determinism-reduction", "")
        assert ids(findings_for(partial, path)) == ["determinism-reduction"]

    def test_parse_errors_are_not_suppressible(self):
        # The suppression table comes from the parsed file; a file that
        # does not parse cannot excuse itself.
        source = "# lint: ignore-file[parse-error]\ndef broken(:\n"
        findings = findings_for(source, "src/repro/x.py")
        assert ids(findings) == [PARSE_ERROR_RULE]

    def test_ignore_file_still_applies_alongside_other_findings(self):
        # A file-wide ignore for one rule must not swallow findings of
        # other rules elsewhere in the same file.
        source = """
        # lint: ignore-file[lock-naming]
        import threading
        import time

        class C:
            def __init__(self):
                self.mylock = threading.Lock()

            def f(self):
                with self._lock:
                    time.sleep(1)
        """
        assert ids(findings_for(source, "src/repro/x.py")) == [
            "lock-no-blocking"
        ]


class TestLayeringRules:
    def test_middleware_construction_outside_builder_flagged(self):
        source = """
        from repro.storage.device import CachingDevice

        def build(inner):
            return CachingDevice(inner, capacity=4)
        """
        (finding,) = findings_for(
            source, "src/repro/query/helper.py",
            "layering-middleware-construction",
        )
        assert "CachingDevice" in finding.message

    def test_every_wrapper_and_the_disk_are_guarded(self):
        wrappers = (
            "SimulatedDisk", "CachingDevice", "CrcFramedDevice",
            "MeteredDevice", "ResilientDevice", "FaultyDevice",
            "ShardedDevice", "ReplicatedDevice",
        )
        for name in wrappers:
            source = f"x = {name}(inner)\n"
            found = findings_for(
                source, "src/repro/core/x.py",
                "layering-middleware-construction",
            )
            assert ids(found) == ["layering-middleware-construction"], name

    def test_builder_modules_may_construct(self):
        source = "x = CachingDevice(inner, capacity=4)\n"
        for path in (
            "src/repro/storage/device.py",
            "src/repro/storage/sharding.py",
            "src/repro/storage/replication.py",
            "src/repro/faults/plan.py",
        ):
            assert findings_for(
                source, path, "layering-middleware-construction"
            ) == [], path

    def test_replicated_device_is_middleware_guarded(self):
        source = "x = ReplicatedDevice([a, b])\n"
        assert ids(findings_for(
            source, "src/repro/core/x.py",
            "layering-middleware-construction",
        )) == ["layering-middleware-construction"]
        assert findings_for(
            source, "src/repro/storage/replication.py",
            "layering-middleware-construction",
        ) == []


class TestConcurrencyRules:
    def test_sleep_under_lock_flagged(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    time.sleep(0.1)
        """
        assert ids(findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        )) == ["lock-no-blocking"]

    def test_sleep_outside_lock_clean(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    n = self.n
                time.sleep(0.1)
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        ) == []

    def test_inner_call_under_lock_flagged(self):
        source = """
        class Layer:
            def read_many(self, block_ids):
                with self._lock:
                    return self.inner.read_many(block_ids)
        """
        (finding,) = findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        )
        assert "self.inner" in finding.message

    def test_callback_under_lock_flagged(self):
        source = """
        class C:
            def f(self):
                with self._cache_lock:
                    self.on_evict(1)
        """
        assert ids(findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        )) == ["lock-no-blocking"]

    def test_wait_under_named_lock_flagged(self):
        source = """
        class C:
            def f(self):
                with self._graph_lock:
                    self.event.wait()
        """
        assert ids(findings_for(
            source, "src/repro/query/x.py", "lock-no-blocking"
        )) == ["lock-no-blocking"]

    CONDITION = """
    import threading
    import time

    class C:
        def __init__(self):
            self._lock = threading.Lock()
            self._other_lock = threading.Lock()
            self._work = threading.Condition(self._lock)
            self._space = threading.Condition(self._other_lock)
            ready = threading.Condition(self._lock)

        def f(self):
            with self._lock:
                while not self.ready:
                    self._work.wait()
                self._work.notify()
                self._work.notify_all()
                EXTRA
    """

    def test_condition_over_the_held_lock_clean(self):
        source = self.CONDITION.replace("EXTRA", "pass")
        assert findings_for(
            source, "src/repro/query/x.py", "lock-no-blocking"
        ) == []

    @pytest.mark.parametrize("extra", [
        "time.sleep(0.1)",
        "self.event.wait()",
        "self._space.wait()",
        "self._space.notify()",
        "event.wait()",
    ])
    def test_other_blocking_beside_a_condition_still_flagged(self, extra):
        # A sleep, a wait on an unrelated event (an attribute or a bare
        # name), or a condition built over a lock this body does not hold.
        (finding,) = findings_for(
            self.CONDITION.replace("EXTRA", extra),
            "src/repro/query/x.py", "lock-no-blocking",
        )
        assert finding.line == 19

    def test_deferred_work_in_nested_def_is_not_under_the_lock(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    def later():
                        time.sleep(1)
                    self.deferred = later
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        ) == []

    def test_bare_acquire_flagged(self):
        source = """
        class C:
            def f(self):
                self._lock.acquire()
                try:
                    pass
                finally:
                    self._lock.release()
        """
        found = findings_for(
            source, "src/repro/storage/x.py", "lock-with-only"
        )
        assert ids(found) == ["lock-with-only", "lock-with-only"]

    def test_with_statement_clean(self):
        source = """
        class C:
            def f(self):
                with self._lock:
                    pass
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "lock-with-only"
        ) == []

    def test_misnamed_lock_attribute_flagged(self):
        source = """
        import threading

        class C:
            def __init__(self):
                self.mutex = threading.Lock()
        """
        (finding,) = findings_for(
            source, "src/repro/streams/x.py", "lock-naming"
        )
        assert "mutex" in finding.message

    def test_conventional_lock_names_clean(self):
        source = """
        import threading
        from repro.lint.lockwatch import watched_lock

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self._cache_lock = threading.RLock()
                self._graph_lock = watched_lock("x")
        """
        assert findings_for(
            source, "src/repro/streams/x.py", "lock-naming"
        ) == []


class TestReductionRule:
    VIOLATIONS = """
    import math
    import numpy as np
    import numpy.linalg
    from numpy import vecdot as vd
    from numpy.linalg import norm

    def f(a, b, taps, keys, strides):
        x = np.dot(a, b)
        y = np.einsum("i,i->", a, b) + np.inner(a, b) + np.matmul(a, b)
        z = math.fsum(a) + numpy.linalg.norm(a) + norm(b) + vd(a, b)
        w = a @ taps
        keys @= strides
        return x, y, z, w, np.tensordot(a, b, axes=1) + np.vdot(a, b)
    """

    def test_order_choosing_reducers_flagged(self):
        findings = findings_for(
            self.VIOLATIONS, "src/repro/query/x.py", "determinism-reduction"
        )
        assert sorted(f.line for f in findings) == [
            9, 10, 10, 10, 11, 11, 11, 11, 12, 13, 14, 14
        ]
        messages = " ".join(f.message for f in findings)
        for name in ("numpy.linalg.norm()", "numpy.tensordot()",
                     "numpy.vdot()", "`@`"):
            assert name in messages

    def test_every_scoped_package_is_covered(self):
        source = "import numpy as np\nx = np.dot([1.0], [2.0])\n"
        for package in ("query", "storage", "wavelets"):
            assert ids(findings_for(
                source, f"src/repro/{package}/x.py", "determinism-reduction"
            )) == ["determinism-reduction"]

    def test_reduce_module_and_other_packages_clean(self):
        for path in ("src/repro/core/reduce.py", "src/repro/online/x.py",
                     "benchmarks/bench_x.py"):
            assert findings_for(
                self.VIOLATIONS, path, "determinism-reduction"
            ) == []

    def test_reduce_calls_and_decorators_clean(self):
        source = """
        import functools
        import numpy as np
        from repro.core.reduce import dot, total

        @functools.cache
        def f(a, b, codes):
            order = np.ravel_multi_index(codes.T, (4, 4))
            return dot(a, b) + total(a) + np.add.reduce(a), order
        """
        assert findings_for(
            source, "src/repro/wavelets/x.py", "determinism-reduction"
        ) == []


class TestObservabilityRule:
    DEVICE = """
    class PlainDevice:
        def read_many(self, block_ids):
            return {b: self.blocks[b] for b in block_ids}

        def write_many(self, blocks):
            self.blocks.update(blocks)
    """

    def test_unmetered_device_class_flagged(self):
        (finding,) = findings_for(
            self.DEVICE, "src/repro/storage/x.py", "obs-coverage"
        )
        assert "PlainDevice" in finding.message

    def test_device_touching_the_registry_clean(self):
        source = self.DEVICE.replace(
            "self.blocks.update(blocks)",
            'obs_counter("x.writes").inc(len(blocks))\n'
            "            self.blocks.update(blocks)",
        )
        assert findings_for(
            source, "src/repro/storage/x.py", "obs-coverage"
        ) == []

    def test_device_outside_storage_packages_not_covered(self):
        assert findings_for(
            self.DEVICE, "src/repro/analysis/x.py", "obs-coverage"
        ) == []

    def test_protocol_classes_exempt(self):
        source = """
        from typing import Protocol

        class BlockDevice(Protocol):
            def read_many(self, block_ids): ...
            def write_many(self, blocks): ...
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "obs-coverage"
        ) == []

    def test_query_service_must_touch_the_registry(self):
        source = """
        class QueryService:
            def submit(self, q):
                return self.pool.submit(q)
        """
        assert ids(findings_for(
            source, "src/repro/query/service.py", "obs-coverage"
        )) == ["obs-coverage"]

    def test_batch_evaluator_must_touch_the_registry(self):
        source = """
        class BatchEvaluator:
            def evaluate_exact(self, queries):
                return [self._engine.evaluate_exact(q) for q in queries]
        """
        assert ids(findings_for(
            source, "src/repro/query/batch.py", "obs-coverage"
        )) == ["obs-coverage"]

    def test_batch_evaluator_reporting_metrics_clean(self):
        source = """
        class BatchEvaluator:
            def evaluate_exact(self, queries):
                obs_counter("query.batch.batches").inc()
                return [self._engine.evaluate_exact(q) for q in queries]
        """
        assert findings_for(
            source, "src/repro/query/batch.py", "obs-coverage"
        ) == []

    def test_ingest_tier_classes_must_touch_the_registry(self):
        for name, path in (
            ("BatchInserter", "src/repro/query/ingest.py"),
            ("IngestService", "src/repro/streams/ingest.py"),
            ("BandwidthCoordinator", "src/repro/streams/ingest.py"),
        ):
            source = f"""
            class {name}:
                def run(self):
                    return None
            """
            assert ids(findings_for(source, path, "obs-coverage")) == [
                "obs-coverage"
            ], name

    def test_ingest_tier_reporting_metrics_clean(self):
        source = """
        class IngestService:
            def submit(self, point, weight):
                obs_gauge("ingest.queue_depth").set(self._queue.qsize())
                self._queue.put((point, weight))
        """
        assert findings_for(
            source, "src/repro/streams/ingest.py", "obs-coverage"
        ) == []


class TestRepoIsClean:
    def test_lint_repo_has_no_findings(self, repo_lint):
        assert repo_lint.findings == []


class TestCli:
    def _write_violation(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "storage"
        tree.mkdir(parents=True)
        (tree / "bad.py").write_text(
            "import time\n\n\nclass C:\n    def f(self):\n"
            "        with self._lock:\n            time.sleep(1)\n"
        )

    def test_lint_exits_nonzero_on_a_violation(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert cli_main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "lock-no-blocking" in out

    def test_lint_json_report_parses(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert cli_main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/v1"
        assert len(payload["rules"]) == len(checks())
        assert payload["summary"] == {"errors": 1, "warnings": 0}
        (finding,) = [
            f for f in payload["findings"]
            if f["rule_id"] == "lock-no-blocking"
        ]
        assert finding["severity"] == "error"

    def test_lint_exits_zero_on_the_repo(self, repo_lint_cli):
        code, out = repo_lint_cli
        assert code == 0
        assert "0 error(s)" in out

    def test_lint_rejects_missing_paths(self, capsys):
        assert cli_main(["lint", "does/not/exist.py"]) == 2
        assert "no src/repro tree" in capsys.readouterr().err
