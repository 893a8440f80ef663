"""The committed paper-claim tables, re-derived in tier-1.

A table under ``benchmarks/results/`` is what EXPERIMENTS.md cites; the
benchmark that writes it runs outside tier-1, so a change that moves a
count could leave the committed table, and the doc citing it, stale.
Each test here re-runs one experiment's deterministic cells and compares
them with its committed table.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture()
def bench(monkeypatch):
    """``bench(name)``: one benchmark module (they import their helpers
    as ``from _util import ...``)."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module


def committed_rows(experiment_id: str, table: int = 0) -> list[list[str]]:
    """The cells of a committed table below its header and rule; a file
    holding several tables separates them by blank lines, and any
    caption sits above the header."""
    text = (BENCHMARKS / "results" / f"{experiment_id}.txt").read_text()
    lines = text.split("\n\n")[table].splitlines()
    rule = next(i for i, line in enumerate(lines) if line.strip().startswith("-"))
    return [line.split() for line in lines[rule + 1:]]


def cells(rows) -> list[list[str]]:
    """A benchmark's table rows as the committed table splits them."""
    return [" ".join(map(str, row)).split() for row in rows]


def test_a4_device_reads_match_the_committed_table(bench):
    reads, _ = bench("bench_a4_bufferpool").run_ablation()
    assert reads == {
        (allocation, pool == "yes"): int(count)
        for allocation, pool, count in committed_rows("A4_bufferpool_locality")
    }


def test_a2_block_reads_match_the_committed_table(bench):
    _, rows = bench("bench_a2_block_size").run_sweep()
    assert cells(rows) == committed_rows("A2_block_size_sweep")


def test_e3_utilization_matches_the_committed_table(bench):
    _, rows = bench("bench_e3_blocks").run_study()
    assert cells(rows) == committed_rows("E3_block_utilization")


def test_e6_plan_costs_match_the_committed_table(bench):
    module = bench("bench_e6_hybrid")
    _, rows = module.run_comparison(module.make_relation())
    assert cells(rows) == committed_rows("E6_hybrid_vs_pure")


def test_a9_objective_bounds_match_the_committed_table(bench):
    # Both objectives' batch progressive bounds, step by step.
    _, rows = bench("bench_a9_batch_objective").run_study()
    assert cells(rows) == committed_rows("A9_batch_objective")


def test_e12_shared_io_and_convergence_match_the_committed_table(bench):
    # Shared against independent block counts, then the batch
    # progressive bounds' convergence.
    _, rows, convergence = bench("bench_e12_batch").run_study()
    assert cells(rows) == committed_rows("E12_batch_shared_io")
    assert cells(convergence) == committed_rows("E12_batch_shared_io", 1)


def test_e9b_work_matches_the_committed_table(bench):
    # Multiply-adds per maintenance strategy; the wall times are printed.
    *_, rows = bench("bench_e9_svd_rangesum").run_incremental_study()
    assert cells(rows) == committed_rows("E9b_incremental_svd")
