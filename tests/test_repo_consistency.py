"""Repository-consistency meta-tests.

Keeps the documentation deliverables honest: every experiment id DESIGN.md
promises must have its benchmark file, every ``__all__`` export must
resolve, and the example scripts the README advertises must exist.
"""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


class TestPublicApi:
    def test_every_dunder_all_name_resolves(self):
        broken = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", []):
                if not hasattr(module, name):
                    broken.append(f"{info.name}.{name}")
        assert broken == [], f"__all__ names that do not resolve: {broken}"

    def test_top_level_exports(self):
        from repro import AIMS, AIMSConfig  # noqa: F401

        assert repro.__version__

    def test_subpackages_importable(self):
        for sub in (
            "core", "streams", "sensors", "wavelets", "acquisition",
            "storage", "query", "online", "analysis", "obs", "faults",
        ):
            importlib.import_module(f"repro.{sub}")


class TestDesignDocSync:
    def test_every_bench_target_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert targets, "DESIGN.md lists no bench targets?"
        missing = [
            t for t in targets if not (ROOT / "benchmarks" / t).exists()
        ]
        assert missing == [], f"DESIGN.md references missing benches: {missing}"

    def test_every_bench_file_is_indexed(self):
        design = (ROOT / "DESIGN.md").read_text()
        on_disk = {
            p.name for p in (ROOT / "benchmarks").glob("bench_*.py")
        }
        indexed = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        unindexed = sorted(on_disk - indexed)
        assert unindexed == [], (
            f"benches missing from DESIGN.md's index: {unindexed}"
        )

    def test_every_cited_test_exists(self):
        # DESIGN's "held by" column is the only record of where a
        # systems claim is checked: a renamed test or a dropped
        # benchmark metric must fail here, not rot there.
        design = (ROOT / "DESIGN.md").read_text()
        cited = set(re.findall(r"tests/test_\w+\.py(?:::\w+)*", design))
        assert cited, "DESIGN.md cites no tests?"
        broken = []
        for path in sorted(cited):
            file, *names = path.split("::")
            source = ROOT / file
            if not source.exists() or not all(
                re.search(
                    rf"^\s*(class|def) {name}\b", source.read_text(), re.M
                )
                for name in names
            ):
                broken.append(path)
        assert broken == [], f"DESIGN.md cites missing tests: {broken}"

        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = {w["name"] for w in bench["workloads"]}
        metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
        held = set(re.findall(r"e2e:(\w+)/([\w.]+)", design))
        assert held, "DESIGN.md cites no e2e metrics?"
        unknown = sorted(
            f"e2e:{w}/{m}" for w, m in held
            if w not in workloads or m not in metrics
        )
        assert unknown == [], (
            f"DESIGN.md cites metrics BENCHMARK.json lacks: {unknown}"
        )

    def test_experiments_doc_covers_all_eids(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for eid in [f"E{k}" for k in range(1, 13)]:
            assert f"| {eid} " in experiments, (
                f"EXPERIMENTS.md has no row for {eid}"
            )

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for script in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / script).exists(), (
                f"README advertises missing example {script}"
            )

    def test_required_docs_present(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "docs/ARCHITECTURE.md", "examples/README.md"):
            path = ROOT / doc
            assert path.exists() and path.stat().st_size > 500, (
                f"{doc} missing or suspiciously small"
            )
