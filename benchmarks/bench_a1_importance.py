"""Ablation A1 — progressive block ordering.

§3.2.1 lets the importance function be query-dependent ("minimizing
worst-case or average error").  This ablation compares three orderings for
progressive ProPolyne:

* ``query_only`` — blocks ranked by query energy alone (ignores what the
  data actually stored there);
* ``bound`` — the shipped default: query norm x stored data norm, i.e.
  the guaranteed-error mass each fetch removes;
* ``random`` — no ordering at all.

Reported: blocks needed until the *actual* error first drops below 1 % on
a smooth cube.  The bound ordering should dominate, which is why the
engine uses it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.sensors.atmosphere import atmospheric_cube
from repro.storage.scheduler import schedule_blocks

from _util import format_table


def blocks_to_accuracy(engine, query, exact, order_blocks, target=0.01):
    values, codes, slots = engine.query_located(query)
    schedule = schedule_blocks(
        values, codes, engine.store.allocation, engine._block_norms
    )
    estimate = 0.0
    for step, at in enumerate(order_blocks(schedule), start=1):
        entries = schedule.entries(at)
        found = engine.store.block_values(
            int(schedule.codes[at]), slots[entries]
        )
        estimate += float(np.cumsum(values[entries] * found)[-1])
        if abs(estimate - exact) <= target * max(abs(exact), 1.0):
            return step
    return len(schedule)


def order_query_only(schedule):
    """Each ordering is a permutation of the schedule's positions."""
    return np.argsort(-schedule.query_norms, kind="stable").tolist()


def order_bound(schedule):
    return list(range(len(schedule)))


def order_random(schedule):
    # Shuffled from the energy order, the list the parent shuffled.
    rng = np.random.default_rng(0)
    shuffled = order_query_only(schedule)
    rng.shuffle(shuffled)
    return shuffled


def run_ablation():
    cube = atmospheric_cube((64, 64), np.random.default_rng(21))
    engine = ProPolyneEngine(cube, max_degree=1, block_size=7)
    rng = np.random.default_rng(22)
    orderings = {
        "query_only": order_query_only,
        "bound": order_bound,
        "random": order_random,
    }
    totals = {name: 0 for name in orderings}
    n_queries = 15
    for _ in range(n_queries):
        lo1, lo2 = rng.integers(0, 40, size=2)
        hi1 = int(min(63, lo1 + rng.integers(10, 40)))
        hi2 = int(min(63, lo2 + rng.integers(10, 40)))
        query = RangeSumQuery.count([(int(lo1), hi1), (int(lo2), hi2)])
        exact = evaluate_on_cube(cube, query)
        for name, order in orderings.items():
            totals[name] += blocks_to_accuracy(engine, query, exact, order)
    averages = {name: t / n_queries for name, t in totals.items()}
    rows = [[name, f"{avg:.1f}"] for name, avg in averages.items()]
    return averages, rows


def test_a1_bound_ordering_dominates(emit, benchmark):
    averages, rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit(
        "A1_importance_ordering",
        format_table(["ordering", "mean blocks to 1% actual error"], rows),
    )
    assert averages["bound"] <= averages["query_only"]
    assert averages["bound"] < averages["random"]
