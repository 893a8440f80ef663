"""P2 — graceful degradation under injected storage faults.

The resilience layer's contract is quantitative: as the injected
read-fault rate climbs, throughput may fall (retries cost time) and
some queries may degrade, but *no* query may fail unhandled, every
degraded answer must carry a finite guaranteed error bound, and at a
zero fault rate every answer must be bitwise identical to
``evaluate_exact``.  This benchmark sweeps the fault rate over
0% / 1% / 5% / 10% of reads and measures exactly those properties.

Results land in ``benchmarks/results/P2_faults.txt`` (table) and in
``BENCH_faults.json`` at the repo root (machine-readable: per-rate
throughput, degraded counts, retry totals, worst relative error of any
degraded answer) — CI uploads the JSON as an artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.obs import counter as obs_counter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec

from conftest import format_table

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_faults.json"

FAULT_RATES = (0.0, 0.01, 0.05, 0.10)
POOL_CAPACITY = 16
N_QUERIES = 48


def build_engine(fault_rate: float) -> ProPolyneEngine:
    """A 64x64 Poisson cube behind a fault-injected resilient store."""
    rng = np.random.default_rng(2003)
    cube = rng.poisson(3.0, (64, 64)).astype(float)
    plan = FaultPlan(
        seed=7,
        read_error_rate=fault_rate,
        torn_rate=fault_rate / 2,
    )
    return ProPolyneEngine(
        cube,
        max_degree=1,
        block_size=7,
        storage=StorageSpec(
            cache_blocks=POOL_CAPACITY,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.0002),
            breaker=CircuitBreaker(
                failure_threshold=8, recovery_timeout_s=0.02
            ),
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
                [(lo1, lo1 + int(rng.integers(4, 23))),
                 (lo2, lo2 + int(rng.integers(4, 23)))]
            )
        )
    return queries


def run_sweep_point(fault_rate: float, queries, exact_answers) -> dict:
    """One fault-rate point: run the workload, account for every query."""
    engine = build_engine(fault_rate)
    retries_before = obs_counter("retry.retries").value
    giveups_before = obs_counter("retry.giveups").value
    degraded = 0
    unhandled = 0
    exact_matches = 0
    worst_rel_err = 0.0
    started = time.perf_counter()
    for query, truth in zip(queries, exact_answers):
        try:
            outcome = engine.evaluate_degradable(query)
        except Exception:  # the contract: this must never happen
            unhandled += 1
            continue
        if outcome.degraded:
            degraded += 1
            assert np.isfinite(outcome.error_bound)
            scale = max(abs(truth), 1.0)
            worst_rel_err = max(
                worst_rel_err, abs(outcome.value - truth) / scale
            )
        else:
            exact_matches += int(outcome.value == truth)
    elapsed = time.perf_counter() - started
    return {
        "fault_rate": fault_rate,
        "queries": len(queries),
        "elapsed_s": round(elapsed, 4),
        "throughput_qps": round(len(queries) / elapsed, 2),
        "degraded": degraded,
        "unhandled": unhandled,
        "exact_matches": exact_matches,
        "worst_degraded_rel_err": round(worst_rel_err, 6),
        "retries": int(obs_counter("retry.retries").value - retries_before),
        "giveups": int(obs_counter("retry.giveups").value - giveups_before),
        "breaker": engine.breaker.snapshot(),
    }


def run_benchmark() -> dict:
    queries = workload()
    clean = build_engine(0.0)
    exact_answers = [clean.evaluate_exact(q) for q in queries]
    runs = [
        run_sweep_point(rate, queries, exact_answers)
        for rate in FAULT_RATES
    ]
    payload = {
        "schema": "repro.bench/faults-v1",
        "pool_capacity": POOL_CAPACITY,
        "retry_max_attempts": 4,
        "runs": runs,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_p2_fault_sweep(emit, benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    runs = payload["runs"]
    rows = [
        [f"{r['fault_rate']:.0%}", r["throughput_qps"],
         f"{r['degraded']}/{r['queries']}", r["retries"], r["giveups"],
         r["breaker"]["state"]]
        for r in runs
    ]
    emit(
        "P2_faults",
        format_table(
            ["fault rate", "qps", "degraded", "retries", "giveups",
             "breaker"],
            rows,
        )
        + "\nJSON baseline written to " + JSON_PATH.name,
    )
    by_rate = {r["fault_rate"]: r for r in runs}
    # The headline claims of the resilience layer:
    # 1. no query ever fails unhandled, at any fault rate;
    for r in runs:
        assert r["unhandled"] == 0
    # 2. with faults disabled, every answer is bitwise equal to exact;
    assert by_rate[0.0]["degraded"] == 0
    assert by_rate[0.0]["exact_matches"] == by_rate[0.0]["queries"]
    # 3. the 5% sweep completes and every degraded answer stayed within
    #    its finite bound machinery (worst relative error recorded).
    assert by_rate[0.05]["queries"] == N_QUERIES
    assert np.isfinite(by_rate[0.05]["worst_degraded_rel_err"])
    assert JSON_PATH.exists()
