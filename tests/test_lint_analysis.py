"""Tests for the whole-program deep-analysis layer (``repro.lint.analysis``).

Analyzer semantics are pinned on fixture trees written to ``tmp_path``
— never on repo files — so they hold independent of the repo's current
state.  The one exception is the acceptance gate at the bottom: the
real tree must deep-lint clean, which is exactly the contract the
``lint-deep`` CI job enforces.
"""

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import LintConfig, lint_repo, load_config, repo_root
from repro.lint.analysis import AnalysisCache, run_deep
from repro.lint.analysis.model import MODEL_VERSION, build_project
from repro.lint.sarif import to_sarif


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
        model = build_project(tmp_path, LintConfig())
        assert set(model.summaries) == {"src/repro/a.py", "src/repro/b.py"}
        cls = model.find_class("Widget")
        assert cls.lock_attrs == {"_lock": ""}
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
        assert model.module_graph["repro.a"] == {"repro.b"}

    def test_parse_error_is_recorded_not_raised(self, tmp_path):
        write_tree(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
        model = build_project(tmp_path, LintConfig())
        assert model.summaries["src/repro/bad.py"].parse_error == 1

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
        model = build_project(tmp_path, LintConfig())
        fn = model.find_class("Q").methods["push"]
        assert any(a.path == "_items" and a.kind == "write"
                   and a.locks == ("_lock",) for a in fn.accesses)


class TestLocksetRace:
    def test_pre_pr7_insert_race_is_rediscovered(self, tmp_path):
        write_tree(tmp_path, {"src/repro/engine.py": PRE_PR7_ENGINE})
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
        assert "deep-lockset-race" not in deep_ids(report)


class TestLockOrder:
    TWO_LOCKS = """
    from repro.lint.lockwatch import watched_lock

    class Pair:
        def __init__(self):
            self._a_lock = watched_lock("fix.a")
            self._b_lock = watched_lock("fix.b")

        def forward(self):
            with self._a_lock:
                with self._b_lock:
                    pass

        def backward(self):
            with self._b_lock:
                with self._a_lock:
                    pass
    """

    def test_opposite_nesting_orders_make_a_cycle(self, tmp_path):
        write_tree(tmp_path, {"src/repro/pair.py": self.TWO_LOCKS})
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
        cycles = [f for f in report.findings
                  if f.rule_id == "deep-lock-order"]
        assert len(cycles) == 1
        assert "fix.a" in cycles[0].message
        assert "fix.b" in cycles[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        forward_only = self.TWO_LOCKS.split("    def backward")[0]
        write_tree(tmp_path, {"src/repro/pair.py": forward_only})
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
        assert "deep-lock-order" not in deep_ids(report)

    def test_cycle_through_a_cross_object_call(self, tmp_path):
        # holder takes its own lock then calls into a collaborator that
        # takes another; the collaborator calls back the other way.
        write_tree(tmp_path, {
            "src/repro/cross.py": """
            from repro.lint.lockwatch import watched_lock

            class Inner:
                def __init__(self):
                    self._inner_lock = watched_lock("fix.inner")

                def poke(self):
                    with self._inner_lock:
                        pass

            class Outer:
                def __init__(self):
                    self._outer_lock = watched_lock("fix.outer")
                    self.inner_obj = Inner()

                def down(self):
                    with self._outer_lock:
                        self.inner_obj.poke()

            class Backwards:
                def __init__(self):
                    self._inner_lock = watched_lock("fix.inner")
                    self.outer_obj = Outer()

                def up(self):
                    with self._inner_lock:
                        self.outer_obj.down()
            """,
        })
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
        cycles = [f for f in report.findings
                  if f.rule_id == "deep-lock-order"]
        assert len(cycles) == 1
        assert "fix.inner" in cycles[0].message
        assert "fix.outer" in cycles[0].message


class TestExceptionContract:
    def test_builtin_raise_in_public_boundary_method_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/storage/dev.py": """
            class Device:
                def read_many(self, block_ids):
                    raise ValueError("bad block id")
            """,
        })
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
        assert "deep-exception-contract" not in deep_ids(report)

    def test_non_boundary_packages_may_raise_builtins(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/analysis_util.py": """
            def convert(x):
                raise ValueError("analysis helpers are not a boundary")
            """,
        })
        report = run_deep(tmp_path, LintConfig(), use_cache=False)
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
    def config(self):
        return LintConfig(docs=("DESIGN.md",), schema_roots=("src/repro",))

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
        report = run_deep(tmp_path, self.config(), use_cache=False)
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
        report = run_deep(tmp_path, self.config(), use_cache=False)
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
        report = run_deep(tmp_path, self.config(), use_cache=False)
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
        report = run_deep(tmp_path, self.config(), use_cache=False)
        drift = {f.message.split("'")[1]: f for f in report.findings
                 if f.rule_id == "deep-schema-drift"}
        assert set(drift) == {"repro.fixture/v1", "repro.newformat/v2"}
        assert drift["repro.newformat/v2"].file == "src/repro/m.py"
        assert drift["repro.fixture/v1"].file == "DESIGN.md"

    def test_config_exclude_is_the_escape_hatch_for_doc_findings(
        self, tmp_path
    ):
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
        config = LintConfig(
            docs=("DESIGN.md",),
            schema_roots=("src/repro",),
            exclude={"deep-metric-drift": ("DESIGN.md",)},
        )
        report = run_deep(tmp_path, config, use_cache=False)
        assert deep_ids(report) == []


class TestCacheAndChanged:
    FILES = {
        "src/repro/a.py": "def f():\n    return 1\n",
        "src/repro/b.py": "def g():\n    return 2\n",
    }

    def test_warm_run_is_fully_cached(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        config = LintConfig(docs=(), schema_roots=())
        cold = run_deep(tmp_path, config)
        warm = run_deep(tmp_path, config)
        assert cold.stats["parsed"] == 2 and cold.stats["cached"] == 0
        assert warm.stats["parsed"] == 0 and warm.stats["cached"] == 2

    def test_changed_file_is_reparsed_and_findings_match(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        config = LintConfig(docs=(), schema_roots=())
        run_deep(tmp_path, config)
        (tmp_path / "src/repro/a.py").write_text(
            "def f():\n    return 3\n"
        )
        warm = run_deep(tmp_path, config)
        assert warm.stats["parsed"] == 1 and warm.stats["cached"] == 1

    def test_cached_and_fresh_runs_report_identically(self, tmp_path):
        write_tree(tmp_path, {"src/repro/engine.py": PRE_PR7_ENGINE})
        config = LintConfig(docs=(), schema_roots=())
        cold = run_deep(tmp_path, config)
        warm = run_deep(tmp_path, config)
        assert warm.stats["cached"] == 1
        assert warm.findings == cold.findings

    def test_model_version_mismatch_discards_the_cache(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        config = LintConfig(docs=(), schema_roots=())
        run_deep(tmp_path, config)
        cache_file = tmp_path / config.cache
        data = json.loads(cache_file.read_text())
        data["model_version"] = MODEL_VERSION + 1
        cache_file.write_text(json.dumps(data))
        warm = run_deep(tmp_path, config)
        assert warm.stats["parsed"] == 2

    def test_corrupt_cache_file_is_tolerated(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        config = LintConfig(docs=(), schema_roots=())
        (tmp_path / config.cache).write_text("{not json")
        report = run_deep(tmp_path, config)
        assert report.stats["parsed"] == 2

    def test_deleted_files_are_pruned(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        config = LintConfig(docs=(), schema_roots=())
        run_deep(tmp_path, config)
        (tmp_path / "src/repro/b.py").unlink()
        run_deep(tmp_path, config)
        cache = AnalysisCache(tmp_path / config.cache)
        assert cache.lookup(
            "src/repro/b.py", "anything"
        ) is None

    def test_only_files_filters_reporting_not_the_model(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/engine.py": PRE_PR7_ENGINE,
            "src/repro/other.py": "def f():\n    return 1\n",
        })
        config = LintConfig(docs=(), schema_roots=())
        report = run_deep(
            tmp_path, config, use_cache=False,
            only_files=["src/repro/other.py"],
        )
        assert report.findings == []
        assert report.stats["files"] == 2
        full = run_deep(tmp_path, config, use_cache=False,
                        only_files=["src/repro/engine.py"])
        assert "deep-lockset-race" in deep_ids(full)


class TestConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.roots == ("src/repro",)
        assert config.cache == ".repro-lint-cache.json"

    def test_section_overrides_and_excludes(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
            [tool.repro-lint]
            roots = ["lib"]
            docs = ["CATALOG.md"]

            [tool.repro-lint.exclude]
            deep-metric-drift = ["lib/vendored/*"]
        """))
        config = load_config(tmp_path)
        assert config.roots == ("lib",)
        assert config.docs == ("CATALOG.md",)
        assert config.excluded("deep-metric-drift", "lib/vendored/x.py")
        assert not config.excluded("deep-metric-drift", "lib/x.py")
        assert not config.excluded("deep-lock-order", "lib/vendored/x.py")

    def test_unknown_key_raises(self, tmp_path):
        from repro.lint import LintError

        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\nrootz = ['src']\n"
        )
        with pytest.raises(LintError):
            load_config(tmp_path)

    def test_lint_repo_reads_configured_roots(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nroots = ["lib"]\n'
        )
        write_tree(tmp_path, {
            # Module derivation needs src/ in the path, so files under
            # a bare "lib" root are out of library scope for the
            # module-scoped rules — what matters here is that the
            # configured root is what gets visited.
            "lib/x.py": "def broken(:\n",
        })
        findings = lint_repo(tmp_path)
        assert [f.rule_id for f in findings] == ["parse-error"]
        assert findings[0].file == "lib/x.py"


class TestSarif:
    def test_sarif_shape_round_trips(self):
        from repro.lint.engine import Finding

        findings = [
            Finding(file="src/repro/x.py", line=3,
                    rule_id="deep-lock-order", severity="error",
                    message="cycle a -> b -> a"),
            Finding(file="src/repro/y.py", line=9,
                    rule_id="mystery-rule", severity="warning",
                    message="odd"),
        ]
        log = to_sarif(findings, {"deep-lock-order": "no cycles"}, "1.0")
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert ids == sorted(ids) and "mystery-rule" in ids
        for result in run["results"]:
            index = result["ruleIndex"]
            assert rules[index]["id"] == result["ruleId"]
        first = run["results"][0]
        loc = first["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/x.py"
        assert loc["region"]["startLine"] == 3
        assert first["level"] == "error"


class TestRealTree:
    """Acceptance: the shipped tree deep-lints clean, fast, cached."""

    def test_repo_is_deep_clean(self):
        report = run_deep(repo_root(), use_cache=False)
        assert report.findings == []

    def test_cli_deep_run_exits_zero(self, capsys):
        assert cli_main(["lint", "--deep", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "[deep:" in out

    def test_cli_sarif_output_parses(self, capsys):
        assert cli_main(
            ["lint", "--deep", "--no-cache", "--format", "sarif"]
        ) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []
        rule_ids = {
            r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"deep-lockset-race", "deep-lock-order",
                "deep-exception-contract", "deep-metric-drift",
                "deep-schema-drift"} <= rule_ids

    def test_cli_changed_mode_reports_only_touched_files(self, capsys):
        # Diffing HEAD against itself would list the working-tree
        # changes; whatever they are, every reported finding must be
        # in the changed set.
        code = cli_main(["lint", "--deep", "--no-cache",
                         "--changed", "HEAD", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        changed = set(payload["changed"])
        assert all(f["file"] in changed for f in payload["findings"])

    def test_cli_changed_with_bad_ref_is_a_usage_error(self, capsys):
        assert cli_main(["lint", "--changed", "no-such-ref-xyz"]) == 2
