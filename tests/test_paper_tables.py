"""The committed paper-claim tables, re-derived in tier-1.

A table under ``benchmarks/results/`` is what EXPERIMENTS.md cites; the
benchmark that writes it runs outside tier-1, so a change that moves a
count could leave the committed table, and the doc citing it, stale.
Each test here re-runs one ablation's deterministic counts and compares
them with its committed table.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def committed_rows(experiment_id: str) -> list[list[str]]:
    """The cells of a committed table, below its header and rule."""
    text = (BENCHMARKS / "results" / f"{experiment_id}.txt").read_text()
    return [line.split() for line in text.splitlines()[2:]]


def test_a4_device_reads_match_the_committed_table(monkeypatch):
    # The bench files import their helpers as ``from _util import ...``.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    bench = importlib.import_module("bench_a4_bufferpool")
    reads, _ = bench.run_ablation()
    assert reads == {
        (allocation, pool == "yes"): int(count)
        for allocation, pool, count in committed_rows("A4_bufferpool_locality")
    }
