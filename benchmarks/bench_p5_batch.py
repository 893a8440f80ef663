"""P5 — batched vectorized evaluation.

PR 6's tentpole: break the ~4x throughput ceiling bench_p1 measured.
Three claims, all recorded in ``BENCH_p5.json`` (CI artifact):

1. **Single-thread batch speedup >= 5x.**  A heavily-overlapping batch
   (sliding drill-down windows) evaluated through
   :class:`~repro.query.batch.BatchEvaluator` — one coalesced
   ``read_many``, one gather, per-segment ``np.dot`` — against the
   sequential per-query loop on the same uncached sharded stack.
2. **8-worker batch throughput >= 6x one worker.**  Distinct batch
   tasks through ``QueryService.submit_batch``; each batch is one
   coalesced fetch whose simulated device sleeps overlap across workers
   (the fan-out pool is widened so concurrent batches don't serialize
   on it).
3. **Bitwise identity.**  Every batched answer equals the sequential
   ``evaluate_exact`` answer exactly — speed must not change a single
   bit.

The translation cache is pre-warmed before any timing: the measured
regime is I/O-bound evaluation, not first-touch query transformation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService
from repro.storage.device import StorageSpec
from repro.storage.latency import LatencyModel

from conftest import format_table

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_p5.json"

WORKER_COUNTS = (1, 2, 4, 8)
SINGLE_LATENCY_S = 0.001   # part 1: per block read, uncached
SCALING_LATENCY_S = 0.006  # part 2: deeper sleeps so fetches dominate
N_SCALING_BATCHES = 8


def make_cube() -> np.ndarray:
    rng = np.random.default_rng(2003)
    return rng.poisson(3.0, (64, 64)).astype(float)


def build_engine(latency_s: float, fanout_workers: int | None = None):
    """Uncached 4-shard stack: every block read pays the device latency."""
    return ProPolyneEngine(
        make_cube(), max_degree=1, block_size=7,
        storage=StorageSpec(
            shards=4,
            latency=LatencyModel(base_s=latency_s),
            fanout_workers=fanout_workers,
        ),
    )


def sliding_windows(row0: int, n_queries: int = 40) -> list[RangeSumQuery]:
    """Heavily-overlapping drill-down windows inside one row band.

    Consecutive windows shift by one cell, so nearly every block is
    shared across the batch — the regime §3.3.1's shared-I/O evaluation
    targets (group-by / drill-down traffic).
    """
    queries = []
    for k in range(n_queries):
        lo = (k % 16)
        queries.append(
            RangeSumQuery.count(
                [(row0 + (k % 8), row0 + 24 + (k % 8)),
                 (lo, lo + 32)]
            )
        )
    return queries


def run_single_thread(queries) -> dict:
    engine = build_engine(SINGLE_LATENCY_S)
    evaluator = BatchEvaluator(engine)
    # Warm the translation cache so both paths measure I/O + reduction.
    for query in queries:
        engine.query_entries(query)

    started = time.perf_counter()
    sequential = [engine.evaluate_exact(q) for q in queries]
    sequential_s = time.perf_counter() - started

    started = time.perf_counter()
    batched = evaluator.evaluate_exact(queries)
    batched_s = time.perf_counter() - started

    identical = sum(b == s for b, s in zip(batched, sequential))
    return {
        "queries": len(queries),
        "union_blocks": evaluator.shared_block_count(queries),
        "independent_blocks": evaluator.independent_block_count(queries),
        "sequential_s": round(sequential_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2),
        "bitwise_identical": f"{identical}/{len(queries)}",
        "all_identical": identical == len(queries),
    }


def run_worker_scaling() -> dict:
    # One batch per row band; widened fan-out pool so 8 concurrent
    # batches (x 4 shard groups each) never queue behind each other.
    engine = build_engine(SCALING_LATENCY_S, fanout_workers=32)
    batches = [
        sliding_windows(row0, n_queries=12)
        for row0 in range(0, 8 * N_SCALING_BATCHES // 2, 4)
    ][:N_SCALING_BATCHES]
    for batch in batches:  # warm translation + compute ground truth once
        for query in batch:
            engine.query_entries(query)
    truths = [[engine.evaluate_exact(q) for q in batch] for batch in batches]

    runs = []
    identical_everywhere = True
    for workers in WORKER_COUNTS:
        with QueryService(
            engine, workers=workers, queue_depth=len(batches)
        ) as service:
            started = time.perf_counter()
            futures = [
                service.submit_batch(batch, block=True) for batch in batches
            ]
            answers = [f.result() for f in futures]
            elapsed = time.perf_counter() - started
        identical_everywhere &= answers == truths
        runs.append(
            {
                "workers": workers,
                "batches": len(batches),
                "queries": sum(len(b) for b in batches),
                "elapsed_s": round(elapsed, 4),
                "batches_per_s": round(len(batches) / elapsed, 2),
            }
        )
    by_workers = {r["workers"]: r for r in runs}
    return {
        "runs": runs,
        "speedup_8_vs_1": round(
            by_workers[1]["elapsed_s"] / by_workers[8]["elapsed_s"], 2
        ),
        "all_identical": identical_everywhere,
    }


def run_benchmark() -> dict:
    single = run_single_thread(sliding_windows(row0=8))
    scaling = run_worker_scaling()
    payload = {
        "schema": "repro.bench/batch-v1",
        "single_latency_s": SINGLE_LATENCY_S,
        "scaling_latency_s": SCALING_LATENCY_S,
        "single_thread": single,
        "worker_scaling": scaling,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_p5_batch_execution(emit, benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    single = payload["single_thread"]
    scaling = payload["worker_scaling"]
    rows = [
        [r["workers"], r["batches"], f"{r['elapsed_s'] * 1e3:.0f}",
         r["batches_per_s"]]
        for r in scaling["runs"]
    ]
    emit(
        "P5_batch",
        format_table(
            ["workers", "batches", "elapsed ms", "batches/s"], rows
        )
        + f"\nsingle-thread batch speedup: {single['speedup']}x "
        f"({single['independent_blocks']} -> {single['union_blocks']} "
        f"blocks, {single['bitwise_identical']} bitwise identical)"
        + f"\n8-worker vs 1-worker: {scaling['speedup_8_vs_1']}x"
        + f"\nJSON baseline written to {JSON_PATH.name}",
    )
    # The headline claims of PR 6:
    assert single["all_identical"], "batched answers must be bitwise exact"
    assert scaling["all_identical"], "scaling answers must be bitwise exact"
    assert single["speedup"] >= 5.0
    assert scaling["speedup_8_vs_1"] >= 6.0


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
