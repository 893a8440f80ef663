"""P3 — sharded storage: fan-out latency scaling and per-shard outage.

Two claims the sharded device stack must earn quantitatively:

* **latency scales down with shards** — with per-device read latency
  of 1 ms, a multi-block exact query fans its reads out across shards,
  so mean query latency improves monotonically from 1 to 4 shards
  while every answer stays bitwise-identical to the unsharded stack;
* **one dead shard degrades only itself** — with shard 1 failing every
  read, no query fails unhandled, the survivors keep answering, and
  every degraded answer carries a finite guaranteed bound with only
  that shard's breaker open.

Results land in ``benchmarks/results/P3_sharding.txt`` (table) and in
``BENCH_sharding.json`` at the repo root (machine-readable: per-shard
latency stats, outage accounting) — CI uploads the JSON as an artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.storage.latency import LatencyModel

from _util import fmt_ms, format_table, safe_percentile

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_sharding.json"

SHARD_COUNTS = (1, 2, 4)
DEVICE_LATENCY_S = 0.001  # >= 1 ms per read: the fan-out regime
N_QUERIES = 24


def make_cube() -> np.ndarray:
    rng = np.random.default_rng(2003)
    return rng.poisson(3.0, (64, 64)).astype(float)


def build_engine(shards: int) -> ProPolyneEngine:
    """Uncached sharded stack: every read pays the device latency."""
    return ProPolyneEngine(
        make_cube(), max_degree=1, block_size=7,
        storage=StorageSpec(
            shards=shards,
            latency=LatencyModel(base_s=DEVICE_LATENCY_S),
        ),
    )


def workload(seed: int = 17) -> list[RangeSumQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(N_QUERIES):
        lo1 = int(rng.integers(0, 40))
        lo2 = int(rng.integers(0, 40))
        queries.append(
            RangeSumQuery.count(
                [(lo1, lo1 + int(rng.integers(8, 23))),
                 (lo2, lo2 + int(rng.integers(8, 23)))]
            )
        )
    return queries


def run_shard_point(shards: int, queries, baseline_answers) -> dict:
    """One shard count: per-query exact latency plus equivalence check."""
    engine = build_engine(shards)
    latencies = []
    identical = 0
    for query, truth in zip(queries, baseline_answers):
        started = time.perf_counter()
        value = engine.evaluate_exact(query)
        latencies.append(time.perf_counter() - started)
        identical += int(value == truth)  # bitwise, not approx
    reads = engine.store.io_snapshot().reads
    return {
        "shards": shards,
        "queries": len(queries),
        "identical_answers": identical,
        "latency_mean_s": (
            None if not latencies
            else round(float(np.mean(latencies)), 5)
        ),
        "latency_p50_s": safe_percentile(latencies, 50),
        "latency_p95_s": safe_percentile(latencies, 95),
        "device_reads": int(reads),
        "fetches_by_shard": {
            str(i): int(disk.io.reads)
            for i, disk in enumerate(engine.store._built.disks)
        },
    }


def run_outage(queries, baseline_answers) -> dict:
    """Shard 1 fails every read: account for every query's outcome."""
    engine = ProPolyneEngine(
        make_cube(), max_degree=1, block_size=7,
        storage=StorageSpec(
            shards=4,
            fault_plan=FaultPlan(seed=9, read_error_rate=1.0),
            fault_shards=(1,),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                     budget_s=0.0),
            breaker=CircuitBreaker(failure_threshold=3,
                                   recovery_timeout_s=30.0),
        ),
    )
    degraded = unhandled = bound_violations = 0
    skipped_total = 0
    for query, truth in zip(queries, baseline_answers):
        try:
            outcome = engine.evaluate_degradable(query)
        except Exception:  # the contract: this must never happen
            unhandled += 1
            continue
        if outcome.degraded:
            degraded += 1
            skipped_total += outcome.blocks_skipped
            if not (np.isfinite(outcome.error_bound)
                    and abs(outcome.value - truth)
                    <= outcome.error_bound + 1e-9):
                bound_violations += 1
    return {
        "shards": 4,
        "dead_shard": 1,
        "queries": len(queries),
        "degraded": degraded,
        "unhandled": unhandled,
        "bound_violations": bound_violations,
        "blocks_skipped": skipped_total,
        "breaker_states": [b.state for b in engine.store.breakers],
    }


def run_benchmark() -> dict:
    queries = workload()
    clean = ProPolyneEngine(make_cube(), max_degree=1, block_size=7)
    baseline = [clean.evaluate_exact(q) for q in queries]
    runs = [run_shard_point(n, queries, baseline) for n in SHARD_COUNTS]
    outage = run_outage(queries, baseline)
    payload = {
        "schema": "repro.bench/sharding-v1",
        "device_latency_s": DEVICE_LATENCY_S,
        "runs": runs,
        "speedup_vs_1_shard": {
            str(r["shards"]): (
                None
                if not runs[0]["latency_mean_s"] or not r["latency_mean_s"]
                else round(
                    runs[0]["latency_mean_s"] / r["latency_mean_s"], 2
                )
            )
            for r in runs
        },
        "outage": outage,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_p3_sharding_sweep(emit, benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    runs = payload["runs"]
    outage = payload["outage"]
    rows = [
        [r["shards"], fmt_ms(r["latency_mean_s"]),
         fmt_ms(r["latency_p50_s"]),
         fmt_ms(r["latency_p95_s"]),
         f"{r['identical_answers']}/{r['queries']}"]
        for r in runs
    ]
    emit(
        "P3_sharding",
        format_table(
            ["shards", "mean ms", "p50 ms", "p95 ms", "identical"], rows
        )
        + f"\noutage (shard {outage['dead_shard']} dead): "
        f"{outage['degraded']}/{outage['queries']} degraded, "
        f"{outage['unhandled']} unhandled, "
        f"breakers {'/'.join(outage['breaker_states'])}"
        + f"\nJSON baseline written to {JSON_PATH.name}",
    )
    by_shards = {r["shards"]: r for r in runs}
    # Transparency: sharding must not change a single answer.
    for r in runs:
        assert r["identical_answers"] == r["queries"]
    # The headline scaling claim: mean latency improves monotonically
    # from 1 to 4 shards under >= 1 ms per-device read latency.
    assert (by_shards[1]["latency_mean_s"]
            > by_shards[2]["latency_mean_s"]
            > by_shards[4]["latency_mean_s"])
    # A single-shard outage degrades queries, never crashes them, and
    # trips only the dead shard's breaker.
    assert outage["unhandled"] == 0
    assert outage["degraded"] > 0
    assert outage["bound_violations"] == 0
    assert outage["breaker_states"][1] == "open"
    assert all(state == "closed"
               for i, state in enumerate(outage["breaker_states"])
               if i != 1)
    assert JSON_PATH.exists()
