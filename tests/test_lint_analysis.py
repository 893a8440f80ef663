"""Tests for the one lint pass and its whole-program analyzers.

Analyzer semantics are pinned on fixture trees written to ``tmp_path``
— never on repo files — so they hold independent of the repo's current
state.  The one exception is the acceptance gate at the bottom: the
real tree must lint clean, which is exactly the contract the
``lint-invariants`` CI job enforces.
"""

import textwrap

import pytest

from repro.lint import LintError, lint_tree, repo_root


def write_tree(root, files):
    """Write ``{relpath: source}`` fixtures under a fake repo root."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def deep_ids(report):
    return [f.rule_id for f in report.findings]


#: A fixture tree reproducing the pre-PR-7 ProPolyne insert race: the
#: batch path mutates engine state under the update lock, the scalar
#: path mutates the same attributes with no lock held.
PRE_PR7_ENGINE = """
from repro.lint.lockwatch import watched_lock

class Engine:
    def __init__(self):
        self._update_lock = watched_lock("query.engine_update")
        self._block_norms = {}
        self._norm = 0.0

    def insert_batch(self, points):
        with self._update_lock:
            for key, value in points:
                self._block_norms[key] = value
            self._norm += len(points)

    def insert(self, key, value):
        self._block_norms[key] = value
        self._norm += value
"""


class TestProjectModel:
    def test_model_indexes_classes_locks_and_calls(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/a.py": """
            from repro.b import helper

            class Widget:
                def __init__(self):
                    self._lock = Lock()
                    self.store = BlockStore()

                def public(self):
                    with self._lock:
                        self._count = 1
                        self._helper()

                def _helper(self):
                    self.store.fetch()
            """,
            "src/repro/b.py": """
            def helper():
                return 1
            """,
        })
        model = lint_tree(tmp_path).model
        assert set(model.summaries) == {"src/repro/a.py", "src/repro/b.py"}
        cls = model.find_class("Widget")
        assert cls.lock_attrs == {"_lock"}
        assert cls.attr_types == {"store": "BlockStore"}
        public = cls.methods["public"]
        write = next(a for a in public.accesses
                     if a.path == "_count" and a.kind == "write")
        assert write.locks == ("_lock",)
        call = next(c for c in public.calls if c.target[1] == "_helper")
        assert call.target[0] == "self" and call.locks == ("_lock",)
        helper_call = next(c for c in cls.methods["_helper"].calls
                           if c.target == ("selfattr", "store", "fetch"))
        assert helper_call.locks == ()

    def test_parse_error_is_recorded_not_raised(self, tmp_path):
        write_tree(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
        report = lint_tree(tmp_path)
        assert [(f.file, f.line, f.rule_id) for f in report.findings] == [
            ("src/repro/bad.py", 1, "parse-error")
        ]
        assert report.model.summaries == {}

    def test_mutator_method_counts_as_write(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/m.py": """
            class Q:
                def __init__(self):
                    self._lock = Lock()

                def push(self, item):
                    with self._lock:
                        self._items.append(item)
            """,
        })
        model = lint_tree(tmp_path).model
        fn = model.find_class("Q").methods["push"]
        assert any(a.path == "_items" and a.kind == "write"
                   and a.locks == ("_lock",) for a in fn.accesses)


class TestLocksetRace:
    def test_pre_pr7_insert_race_is_rediscovered(self, tmp_path):
        write_tree(tmp_path, {"src/repro/engine.py": PRE_PR7_ENGINE})
        report = lint_tree(tmp_path)
        races = [f for f in report.findings
                 if f.rule_id == "deep-lockset-race"]
        racy_attrs = {m for f in races
                      for m in ("_block_norms", "_norm")
                      if f"self.{m}" in f.message}
        assert racy_attrs == {"_block_norms", "_norm"}
        assert all("insert" in f.message and "insert_batch" in f.message
                   for f in races)
        assert all(f.file == "src/repro/engine.py" for f in races)

    def test_fully_guarded_class_is_clean(self, tmp_path):
        source = PRE_PR7_ENGINE.replace(
            "    def insert(self, key, value):\n"
            "        self._block_norms[key] = value\n"
            "        self._norm += value\n",
            "    def insert(self, key, value):\n"
            "        with self._update_lock:\n"
            "            self._block_norms[key] = value\n"
            "            self._norm += value\n",
        )
        assert source != PRE_PR7_ENGINE
        write_tree(tmp_path, {"src/repro/engine.py": source})
        report = lint_tree(tmp_path)
        assert "deep-lockset-race" not in deep_ids(report)

    def test_lock_context_propagates_through_private_helpers(self, tmp_path):
        # The helper mutates state unguarded *textually*, but every
        # caller holds the lock, so the effective lockset is guarded.
        write_tree(tmp_path, {
            "src/repro/helper.py": """
            class Engine:
                def __init__(self):
                    self._lock = Lock()
                    self._state = {}

                def update(self, key, value):
                    with self._lock:
                        self._apply(key, value)

                def _apply(self, key, value):
                    self._state[key] = value
            """,
        })
        report = lint_tree(tmp_path)
        assert "deep-lockset-race" not in deep_ids(report)

    def test_unlocked_caller_of_helper_makes_it_racy(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/helper.py": """
            class Engine:
                def __init__(self):
                    self._lock = Lock()
                    self._state = {}

                def update(self, key, value):
                    with self._lock:
                        self._apply(key, value)

                def update_fast(self, key, value):
                    self._apply(key, value)

                def _apply(self, key, value):
                    self._state[key] = value
            """,
        })
        report = lint_tree(tmp_path)
        assert "deep-lockset-race" in deep_ids(report)

    def test_init_writes_are_construction_not_races(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/ctor.py": """
            class Engine:
                def __init__(self):
                    self._lock = Lock()
                    self._state = {}

                def update(self, key, value):
                    with self._lock:
                        self._state[key] = value
            """,
        })
        report = lint_tree(tmp_path)
        assert "deep-lockset-race" not in deep_ids(report)

    def test_inline_suppression_silences_a_deep_finding(self, tmp_path):
        suppressed = PRE_PR7_ENGINE.replace(
            "        self._block_norms[key] = value\n"
            "        self._norm += value\n",
            "        self._block_norms[key] = value"
            "  # lint: ignore[deep-lockset-race] — fixture\n"
            "        self._norm += value"
            "  # lint: ignore[deep-lockset-race] — fixture\n",
        )
        assert suppressed != PRE_PR7_ENGINE
        write_tree(tmp_path, {"src/repro/engine.py": suppressed})
        report = lint_tree(tmp_path)
        assert "deep-lockset-race" not in deep_ids(report)


class TestExceptionContract:
    def test_builtin_raise_in_public_boundary_method_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/storage/dev.py": """
            class Device:
                def read_many(self, block_ids):
                    raise ValueError("bad block id")
            """,
        })
        report = lint_tree(tmp_path)
        contracts = [f for f in report.findings
                     if f.rule_id == "deep-exception-contract"]
        assert len(contracts) == 1
        assert "ValueError" in contracts[0].message
        assert "Device.read_many" in contracts[0].message

    def test_reachable_through_private_helper_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/query/eng.py": """
            class Engine:
                def evaluate(self, q):
                    return self._check(q)

                def _check(self, q):
                    if q is None:
                        raise KeyError(q)
                    return q
            """,
        })
        report = lint_tree(tmp_path)
        contracts = [f for f in report.findings
                     if f.rule_id == "deep-exception-contract"]
        assert len(contracts) == 1
        assert "Engine.evaluate" in contracts[0].message

    def test_typed_and_shadowed_raises_are_clean(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/storage/dev.py": """
            from repro.core.errors import StorageError

            class ValueError(Exception):
                pass

            class Device:
                def read_many(self, block_ids):
                    raise StorageError("bad block id")

                def write_many(self, blocks):
                    raise ValueError("shadowed local class, not builtin")
            """,
        })
        report = lint_tree(tmp_path)
        assert "deep-exception-contract" not in deep_ids(report)

    def test_protocol_builtins_and_private_entry_points_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/storage/dev.py": """
            class Device:
                def read_many(self, block_ids):
                    raise NotImplementedError

                def _internal(self):
                    raise ValueError("never flagged: not an entry point")
            """,
        })
        report = lint_tree(tmp_path)
        assert "deep-exception-contract" not in deep_ids(report)

    def test_non_boundary_packages_may_raise_builtins(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/analysis_util.py": """
            def convert(x):
                raise ValueError("analysis helpers are not a boundary")
            """,
        })
        report = lint_tree(tmp_path)
        assert "deep-exception-contract" not in deep_ids(report)


DOCS = {
    "DESIGN.md": """
    | Name | Kind | Meaning |
    |---|---|---|
    | `fix.reads` / `misses` | counter | fixture traffic |
    | `fix.<op>.seconds` | histogram | per-op latency |

    The export format is `repro.fixture/v1`.
    """,
}


class TestDrift:
    def test_documented_tree_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            **DOCS,
            "src/repro/m.py": """
            from repro.obs import counter, histogram

            def touch(op):
                counter("fix.reads").inc()
                counter("fix.misses").inc()
                histogram(f"fix.{op}.seconds").observe(0.1)
                return "repro.fixture/v1"
            """,
        })
        report = lint_tree(tmp_path)
        assert deep_ids(report) == []

    def test_undocumented_metric_fails_at_the_code_site(self, tmp_path):
        write_tree(tmp_path, {
            **DOCS,
            "src/repro/m.py": """
            from repro.obs import counter, histogram

            def touch(op):
                counter("fix.reads").inc()
                counter("fix.misses").inc()
                histogram(f"fix.{op}.seconds").observe(0.1)
                counter("totally.new.metric").inc()
                return "repro.fixture/v1"
            """,
        })
        report = lint_tree(tmp_path)
        drift = [f for f in report.findings
                 if f.rule_id == "deep-metric-drift"]
        assert len(drift) == 1
        assert "totally.new.metric" in drift[0].message
        assert drift[0].file == "src/repro/m.py"
        assert drift[0].severity == "error"

    def test_stale_catalogue_row_fails_at_the_doc_line(self, tmp_path):
        write_tree(tmp_path, {
            **DOCS,
            "src/repro/m.py": """
            from repro.obs import counter

            def touch():
                counter("fix.reads").inc()
                counter("fix.misses").inc()
                return "repro.fixture/v1"
            """,
        })
        report = lint_tree(tmp_path)
        drift = [f for f in report.findings
                 if f.rule_id == "deep-metric-drift"]
        # fix.<op>.seconds has no registration site left.
        assert len(drift) == 1
        assert "fix.<op>.seconds" in drift[0].message
        assert drift[0].file == "DESIGN.md"
        assert drift[0].line == 5

    def test_schema_drift_both_directions(self, tmp_path):
        write_tree(tmp_path, {
            **DOCS,
            "src/repro/m.py": """
            from repro.obs import counter

            def touch(op):
                counter("fix.reads").inc()
                counter("fix.misses").inc()
                counter(f"fix.{op}.total").inc()  # noqa: fixture
                return "repro.newformat/v2"
            """,
        })
        # keep the metric catalogue satisfied so only schemas differ
        design = (tmp_path / "DESIGN.md").read_text().replace(
            "| `fix.<op>.seconds` | histogram | per-op latency |",
            "| `fix.<op>.total` | counter | per-op tallies |",
        )
        (tmp_path / "DESIGN.md").write_text(design)
        report = lint_tree(tmp_path)
        drift = {f.message.split("'")[1]: f for f in report.findings
                 if f.rule_id == "deep-schema-drift"}
        assert set(drift) == {"repro.fixture/v1", "repro.newformat/v2"}
        assert drift["repro.newformat/v2"].file == "src/repro/m.py"
        assert drift["repro.fixture/v1"].file == "DESIGN.md"


#: One violation of each of the fourteen checks, a suppressed deep
#: finding, and a file that does not parse.
RULE_TREE = {
    "src/repro/broken.py": "def broken(:\n",
    "src/repro/acquisition/tap.py": """
        from repro.storage.blockstore import BlockStore
        """,
    "src/repro/query/helper.py": """
        from repro.storage.codec import encode_block


        def build(inner):
            return CachingDevice(inner, capacity=4)
        """,
    "src/repro/cluster/frontend.py": """
        node = BackendNode("backend-0")
        """,
    "src/repro/streams/pump.py": """
        import threading
        import time


        class Pump:
            def __init__(self):
                self._lock = threading.Lock()
                self.mutex = threading.Lock()

            def drain(self):
                with self._lock:
                    time.sleep(0.1)

            def grab(self):
                self._lock.acquire()
        """,
    "src/repro/analysis/noise.py": """
        import numpy as np

        x = np.random.rand(3)
        """,
    "src/repro/storage/plain.py": """
        class PlainDevice:
            def read_many(self, block_ids):
                return {b: self.blocks[b] for b in block_ids}

            def write_many(self, blocks):
                self.blocks.update(blocks)
        """,
    "src/repro/storage/dev.py": """
        class Device:
            def read_many(self, block_ids):
                raise ValueError("bad block id")

            def erase(self, block_id):
                raise KeyError(block_id)  # lint: ignore[deep-exception-contract] — fixture
        """,
    "src/repro/core/engine.py": """
        from repro.lint.lockwatch import watched_lock


        class Engine:
            def __init__(self):
                self._update_lock = watched_lock("fix.engine_update")
                self._norm = 0.0

            def insert_batch(self, points):
                with self._update_lock:
                    self._norm += len(points)

            def insert(self, value):
                self._norm += value
        """,
    "src/repro/core/meter.py": """
        from repro.obs import counter

        FORMAT = "repro.fixture/v1"


        def touch():
            counter("fix.undocumented").inc()
        """,
    "src/repro/wavelets/taps.py": """
        import numpy as np

        y = np.dot([1.0], [2.0])
        """,
}

#: What the per-file engine and the separate deep run reported on
#: RULE_TREE before they became one pass — less the deep run's second
#: parse-error for ``broken.py`` and the lock-order analyzer since
#: deleted — and the reduction rule added since.
RULE_FINDINGS = [
    ("src/repro/acquisition/tap.py", 2, "layering-import-boundary",
     "repro.acquisition.tap imports repro.storage.blockstore: acquisition "
     "hands samples to the facade; it never touches storage directly"),
    ("src/repro/analysis/noise.py", 4, "determinism-seeded-rng",
     "np.random.rand() uses numpy's hidden global RNG; draw from a "
     "seeded np.random.default_rng(seed) instead"),
    ("src/repro/broken.py", 1, "parse-error",
     "file does not parse: invalid syntax"),
    ("src/repro/cluster/frontend.py", 2, "layering-cluster-boundary",
     "BackendNode constructed in repro.cluster.frontend; backends are "
     "built by repro.cluster.backend or the AIMS facade"),
    ("src/repro/core/engine.py", 15, "deep-lockset-race",
     "Engine.insert mutates self._norm with no lock held, but "
     "Engine.insert_batch mutates it under _update_lock (line 12); "
     "concurrent callers can lose updates"),
    ("src/repro/core/meter.py", 4, "deep-schema-drift",
     "schema 'repro.fixture/v1' appears in code but in none of the docs "
     "(DESIGN.md, docs/OPERATIONS.md, docs/REPLAY.md); document the "
     "format"),
    ("src/repro/core/meter.py", 8, "deep-metric-drift",
     "metric 'fix.undocumented' is registered here but absent from the "
     "catalogues (DESIGN.md, docs/OPERATIONS.md, docs/REPLAY.md); "
     "document it or drop the series"),
    ("src/repro/query/helper.py", 2, "layering-codec-containment",
     "repro.query.helper reaches into repro.storage.codec; framing "
     "belongs to CrcFramedDevice"),
    ("src/repro/query/helper.py", 6, "layering-middleware-construction",
     "CachingDevice constructed outside the device-stack builder; "
     "declare a StorageSpec (or extend StorageSpec.build) instead"),
    ("src/repro/storage/dev.py", 4, "deep-exception-contract",
     "raise ValueError can escape public entry point "
     "repro.storage.dev.Device.read_many; raise an AIMSError subclass "
     "(repro.core.errors) so callers' typed firewalls hold"),
    ("src/repro/storage/plain.py", 2, "obs-coverage",
     "PlainDevice (BlockDevice implementation) never touches the obs "
     "registry; emit counter()/gauge()/histogram() series or suppress "
     "with a justification"),
    ("src/repro/streams/pump.py", 9, "lock-naming",
     "Lock() assigned to 'mutex'; lock attributes must be named _lock "
     "or _*_lock"),
    ("src/repro/streams/pump.py", 13, "lock-no-blocking",
     "blocking call 'sleep' inside a `with _lock:` body"),
    ("src/repro/streams/pump.py", 16, "lock-with-only",
     "bare _lock.acquire(); use `with _lock:` so an early raise cannot "
     "leak the lock"),
    ("src/repro/wavelets/taps.py", 4, "determinism-reduction",
     "numpy.dot() picks its own reduction order (a BLAS kernel per CPU, "
     "or correct rounding); reduce through repro.core.reduce so the bits "
     "hold on every machine"),
]


class TestOnePass:
    def test_rule_tree_reports_each_finding_once(self, tmp_path):
        write_tree(tmp_path, RULE_TREE)
        findings = lint_tree(tmp_path).findings
        assert [
            (f.file, f.line, f.rule_id, f.message) for f in findings
        ] == RULE_FINDINGS
        assert {f.severity for f in findings} == {"error"}
        assert len({f.rule_id for f in findings}) == 15  # 14 + parse-error

    def test_missing_source_tree_is_an_error_not_a_clean_run(self, tmp_path):
        with pytest.raises(LintError):
            lint_tree(tmp_path)


class TestRealTree:
    """Acceptance: the shipped tree lints clean, every file modelled."""

    def test_repo_is_deep_clean(self, repo_lint):
        modelled = set(repo_lint.model.summaries)
        on_disk = {
            p.relative_to(repo_root()).as_posix()
            for p in (repo_root() / "src" / "repro").rglob("*.py")
        }
        assert modelled == on_disk
        assert repo_lint.findings == []

    def test_cli_deep_run_exits_zero(self, repo_lint_cli):
        code, out = repo_lint_cli
        assert code == 0
        assert out.rstrip().endswith(
            "aims lint: 0 error(s), 0 warning(s) (14 rule(s))"
        )
