"""The block-address net: every read path's bits and I/O, pinned.

A seeded mix of 40 queries (COUNT and degree-1 SUM) and one 64-point
``insert_batch`` run through every evaluation path — ``evaluate_exact``,
``evaluate_progressive``, ``evaluate_degradable``, the three
``BatchEvaluator`` entry points, the ``QueryService`` shared scan and
as-of reads at epochs 0 and 1 — on eight storage stacks: 1, 2 and 4
shards with the block cache off and on, one replica per shard, and CRC
framing under a seeded ``FaultPlan`` (read errors and torn blocks) and
a retry policy.

After every phase the test records the answers' bits, every leaf's
read and write count, every cache's hits and misses and every fault
plan's decision history, and compares them with
``block_codes_parent.json``.  That file was recorded by running this
file as a script against the commit before block addresses became
integer codes (``PYTHONPATH=<parent>/src python
tests/test_storage_block_codes.py``); only ever point it at a parent
checkout.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService
from repro.storage.device import StorageSpec

FIXTURE = Path(__file__).with_name("block_codes_parent.json")

SHAPE = (16, 16, 8)
SEED = 2026


def stacks() -> dict:
    """Fresh specs (a fault plan is stateful, so one per build)."""
    out = {}
    for shards in (1, 2, 4):
        out[f"shards{shards}"] = {"shards": shards}
        out[f"shards{shards}_cached"] = {"shards": shards, "cache_blocks": 24}
    out["replicated"] = {"shards": 2, "replicas": 1}
    out["crc_faults"] = {
        "shards": 2,
        "crc": True,
        "fault_plan": FaultPlan(seed=17, read_error_rate=0.05, torn_rate=0.05),
        "retry_policy": RetryPolicy(max_attempts=3, base_delay_s=0.0),
    }
    return out


def workload():
    """The 40 queries and the 64 weighted insert points."""
    rng = np.random.default_rng(SEED)
    queries = []
    for i in range(40):
        ranges = []
        for n in SHAPE:
            lo = int(rng.integers(0, n))
            ranges.append((lo, int(rng.integers(lo, n))))
        if i % 3 == 2:
            queries.append(RangeSumQuery.weighted(ranges, {i % len(SHAPE): 1}))
        else:
            queries.append(RangeSumQuery.count(ranges))
    points = np.column_stack([rng.integers(0, n, size=64) for n in SHAPE])
    return queries, points, rng.normal(size=64)


def _layers(stats, kind):
    if isinstance(stats, dict):
        if stats.get("layer") == kind:
            yield stats
        for value in stats.values():
            yield from _layers(value, kind)
    elif isinstance(stats, list):
        for value in stats:
            yield from _layers(value, kind)


def io_state(engine) -> dict:
    """Every leaf's and cache's counters and every fault history."""
    stats = engine.store.storage_stats()
    histories = [
        list(layer.plan.history) for layer in engine.store._built.faulty
    ]
    return {
        "leaf": [[d["reads"], d["writes"]] for d in _layers(stats, "disk")],
        "cache": [[c["hits"], c["misses"]] for c in _layers(stats, "caching")],
        "faults": [
            [
                len(h), sum(kind is not None for _, kind in h),
                hashlib.sha256(repr(h).encode()).hexdigest(),
            ]
            for h in histories
        ],
    }


def attempt(fn):
    """``fn()``, or the name of the error it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error type is recorded
        return f"error:{type(exc).__name__}"


def bits(value):
    return value.hex() if isinstance(value, float) else value


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def outcome_row(outcome):
    return [
        outcome.value.hex(), outcome.degraded, outcome.reason,
        outcome.blocks_read, outcome.blocks_skipped,
        outcome.error_bound.hex(),
    ]


def run_stack(spec: dict) -> list:
    """Every phase on one stack: ``[phase, answers, io_state]`` rows."""
    queries, points, weights = workload()
    cube = np.random.default_rng(SEED + 1).poisson(3.0, SHAPE).astype(float)
    engine = ProPolyneEngine(
        cube, max_degree=1, block_size=3, storage=StorageSpec(**spec)
    )
    engine.enable_versioning()
    evaluator = BatchEvaluator(engine)
    rows = [["populate", None, io_state(engine)]]

    def phase(name, answers):
        rows.append([name, answers, io_state(engine)])

    try:
        phase("exact", [
            bits(attempt(lambda q=q: engine.evaluate_exact(q)))
            for q in queries
        ])
        phase("progressive", digest([
            attempt(lambda q=q: [
                [s.estimate.hex(), s.error_bound.hex(), s.blocks_read]
                for s in engine.evaluate_progressive(q)
            ])
            for q in queries
        ]))
        phase("degradable", [
            attempt(lambda q=q: outcome_row(engine.evaluate_degradable(q)))
            for q in queries
        ])
        phase("batch_exact", attempt(lambda: [
            v.hex() for v in evaluator.evaluate_exact(queries)
        ]))
        phase("batch_degradable", attempt(lambda: [
            outcome_row(o) for o in evaluator.evaluate_degradable(queries)
        ]))
        phase("batch_progressive", digest(attempt(lambda: [
            [[e.hex() for e in step.estimates],
             [b.hex() for b in step.error_bounds], step.blocks_read]
            for step in evaluator.evaluate_progressive(queries[:8])
        ])))
        with QueryService(engine, workers=1) as service:
            phase("service", [
                bits(attempt(service.submit_exact(q, block=True).result))
                for q in queries
            ])
        phase("insert", attempt(
            lambda: engine.inserter.insert_batch(points, weights)
        ))
        for epoch in (0, 1):
            phase(f"as_of_{epoch}", [
                bits(attempt(lambda q=q: engine.evaluate_exact(q, as_of=epoch)))
                for q in queries
            ])
    finally:
        engine.store.close()
    return rows


def record() -> dict:
    return {name: run_stack(spec) for name, spec in stacks().items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("stack", list(stacks()))
def test_every_path_keeps_its_bits_and_its_io(recorded, stack):
    got = json.loads(json.dumps(run_stack(stacks()[stack])))
    want = recorded[stack]
    assert [row[0] for row in got] == [row[0] for row in want]
    for (name, answers, io), (_, want_answers, want_io) in zip(got, want):
        assert answers == want_answers, name
        assert io == want_io, name


def test_the_fixture_exercises_faults_and_caches(recorded):
    # The net is only as good as what it catches: faults fired and were
    # absorbed, caches both hit and missed, every shard was read.
    history = recorded["crc_faults"][-1][2]["faults"]
    assert len(history) == 2
    assert all(draws > 100 and fired > 10 for draws, fired, _ in history)
    cached = recorded["shards4_cached"][-1][2]["cache"]
    assert len(cached) == 4 and all(h > 0 and m > 0 for h, m in cached)
    leaves = recorded["shards4"][-1][2]["leaf"]
    assert len(leaves) == 4 and all(r > 0 and w > 0 for r, w in leaves)
    assert len(recorded["replicated"][-1][2]["leaf"]) == 4


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
