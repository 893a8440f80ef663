"""Smoke tests for the observability and resilience tooling surface.

Exercises the operator entry points end to end, in subprocesses, the
way CI does: the ``aims stats`` CLI report (text and JSON forms) and the
benchmark harness's ``--metrics-json`` sidecar.  The ``aims chaos``
drill runs in-process in ``tests/test_cli.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run(*argv, timeout=180):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestStatsCommand:
    def test_stats_json_parses_and_is_populated(self):
        proc = _run("-m", "repro.cli", "stats", "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert set(report) == {"counters", "gauges", "histograms", "spans"}
        for name in (
            "storage.disk.reads",
            "storage.pool.hits",
            "query.exact.queries",
            "query.service.submitted",
            "query.service.completed",
            "query.parts.hits",
            "query.parts.misses",
            "streams.frames_ingested",
            "recognizer.decisions",
        ):
            assert report["counters"].get(name, 0) > 0, name
        assert 0.0 < report["gauges"].get("storage.pool.occupancy", 0.0) <= 1.0
        assert report["histograms"]["query.blocks_per_query"]["count"] >= 1
        assert report["spans"]  # at least one retained root span

    def test_stats_text_report_renders(self):
        proc = _run("-m", "repro.cli", "stats")
        assert proc.returncode == 0, proc.stderr
        for section in ("counters", "histograms", "spans"):
            assert section in proc.stdout
        assert "storage.pool.hits" in proc.stdout
        assert "storage.pool.occupancy" in proc.stdout
        assert "query.parts" in proc.stdout
        assert "query.service" in proc.stdout
        # The resilience drill's series and the breaker-state line.
        assert "retry.attempts" in proc.stdout
        assert "faults.injected.read_errors" in proc.stdout
        assert "breaker 'storage':" in proc.stdout


class TestMetricsSidecar:
    def test_benchmark_writes_parseable_sidecar(self, tmp_path):
        sidecar = tmp_path / "metrics.json"
        proc = _run(
            "-m",
            "pytest",
            "benchmarks/bench_a4_bufferpool.py",
            "-q",
            "--no-header",
            "-p",
            "no:cacheprovider",
            f"--metrics-json={sidecar}",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(sidecar.read_text())
        assert payload["schema"] == "repro.obs/v1"
        assert payload["exitstatus"] == 0
        metrics = payload["metrics"]
        assert metrics["counters"].get("storage.disk.reads", 0) > 0
        assert metrics["counters"].get("storage.pool.hits", 0) > 0
