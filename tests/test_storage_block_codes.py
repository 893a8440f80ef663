"""The cross-path oracle on nine storage stacks: bits computed, I/O pinned.

A seeded mix of 40 queries (COUNT and degree-1 SUM) and one 64-point
``insert_batch`` on a 16×16×8 cube run through every runner of
:mod:`repro.testing.oracle` — scalar, batch, served, as-of and
cluster-routed exact paths, the progressive and degradable paths of the
engine, the batch evaluator and the service — on nine stacks: 1, 2 and
4 shards with the block cache off and on, one replica per shard, and CRC
framing under a seeded ``FaultPlan`` (read errors and torn blocks) and a
retry policy at 1 and at 4 shards.

:func:`repro.testing.oracle.check` computes the contract on each stack,
and :func:`repro.testing.oracle.check_layouts` that the two faulted
layouts meet the same faults and give the same answers; nothing they
assert is recorded.  Two things are, because they should move only on
purpose:

* ``CONTRACT_DIGEST``, one sha256 over the exact answers before and
  after the insert.  It moves only when DESIGN's "One reduction order"
  does, and is then edited by hand.
* ``block_codes_io.txt``, one line per (stack, phase): every leaf's
  reads/writes, the store cache's hits/misses, every fault layer's
  decisions/firings and a hash of its ordinals, and how many answers
  were errors.
  ``PYTHONPATH=src python tests/test_storage_block_codes.py`` re-records
  it from the tree ``PYTHONPATH`` names; the diff is the review.
"""

import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.backend import BackendNode
from repro.cluster.frontend import ClusterFrontend
from repro.core.errors import StorageUnavailable
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService
from repro.storage.device import StorageSpec
from repro.testing import oracle

TABLE = Path(__file__).with_name("block_codes_io.txt")
CONTRACT_DIGEST = "545d6bad9bb25959e757b1fa3caf5b0ff9914e852c6727af8cbfbe61bf525664"

SHAPE = (16, 16, 8)
SEED = 2026


def _spec(**kwargs):
    return lambda: StorageSpec(**kwargs)


def crc_faults(shards: int):
    return _spec(
        shards=shards, crc=True,
        fault_plan=FaultPlan(seed=17, read_error_rate=0.05, torn_rate=0.05),
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
    )


STACKS = {
    **{f"shards{n}{cached}": _spec(shards=n, **extra)
       for n in (1, 2, 4)
       for cached, extra in (("", {}), ("_cached", {"cache_blocks": 24}))},
    "replicated": _spec(shards=2, replicas=1),
    "crc_faults": crc_faults(1),
    "crc_faults4": crc_faults(4),
}


def workload() -> oracle.Workload:
    """The 40 queries (every third a degree-1 SUM) over a Poisson(3)
    cube, and the 64 weighted insert points."""
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
    cube = np.random.default_rng(SEED + 1).poisson(3.0, SHAPE).astype(float)
    return oracle.Workload(cube, tuple(queries), points, rng.normal(size=64))


def faults_of(layer) -> str:
    """A fault layer's decisions/firings:hash of its ordinal tables."""
    reads, writes = layer.ordinals()
    tables = repr((sorted(reads.items()), sorted(writes.items())))
    return (f"{sum(reads.values()) + sum(writes.values())}/{layer.fired}:"
            + hashlib.sha256(tables.encode()).hexdigest()[:8])


def io_row(engine, answers) -> str:
    """Every leaf's reads/writes, the store cache's hits/misses, every fault
    layer's :func:`faults_of`, and how many answers failed."""
    built = engine.store._built
    leaf = ",".join(f"{d.io.reads}/{d.io.writes}" for d in built.disks)
    stats = built.cache and built.cache.pool_stats
    cache = stats and f"{stats.hits}/{stats.misses}"
    faults = ",".join(map(faults_of, built.faulty))
    errors = sum(isinstance(a, Exception) for a in answers)
    return (f"leaf={leaf} cache={cache or '-'} faults={faults or '-'} "
            f"errors={errors}")


def run_all() -> dict:
    return {name: oracle.run_stack(WORKLOAD, spec, io_row)
            for name, spec in STACKS.items()}


def table(runs) -> list[str]:
    return [f"{name} {phase} {row}"
            for name, run in runs.items() for phase, row in run.io.items()]


def rows_of(stack: str, lines) -> list[str]:
    return [line for line in lines if line.split()[0] == stack]


WORKLOAD = workload()


@pytest.fixture(scope="module")
def runs():
    return run_all()


@pytest.mark.parametrize("stack", list(STACKS))
def test_every_path_keeps_its_bits_and_its_io(runs, stack):
    oracle.check(WORKLOAD, runs, stack)
    assert rows_of(stack, table(runs)) == rows_of(
        stack, TABLE.read_text().splitlines()
    ), "I/O table moved; re-record it and review the diff"


def test_a_fault_meets_a_block_not_a_layout(runs):
    oracle.check_layouts(runs["crc_faults"], runs["crc_faults4"], "crc_faults")


def test_a_cache_hit_meets_a_block_not_a_layout(runs):
    # One cache per store, above the fan-out: the cache sees the same
    # groups on 1, 2 and 4 shards, so every phase has the same hits and
    # misses and the leaves below read and write as much in total.
    def totals(row):
        cells = dict(cell.split("=") for cell in row.split()[:-1])
        leaves = [tuple(map(int, leaf.split("/")))
                  for leaf in cells["leaf"].split(",")]
        return cells["cache"], tuple(map(sum, zip(*leaves)))

    one = runs["shards1_cached"].io
    for stack in ("shards2_cached", "shards4_cached"):
        assert runs[stack].io.keys() == one.keys()
        for phase, row in runs[stack].io.items():
            assert totals(row) == totals(one[phase]), f"{stack}/{phase}"


def test_exact_fails_where_degradable_degrades():
    # Fresh stacks, no cache: the exact path reads a query's blocks in
    # one group, the degradable path one by one, and both retry each
    # block until its plan lets it through — so on 1 and on 4 shards the
    # same queries fail exactly and degrade, over the same decisions.
    outcomes = []
    for shards in (1, 4):
        exact, degradable = (oracle.engine(WORKLOAD, crc_faults(shards))
                             for _ in range(2))
        failed = [i for i, q in enumerate(WORKLOAD.queries) if isinstance(
            oracle.attempt(exact.evaluate_exact, q), StorageUnavailable)]
        degraded = [i for i, q in enumerate(WORKLOAD.queries)
                    if degradable.evaluate_degradable(q).degraded]
        assert failed == degraded and failed
        assert oracle.decisions(exact) == oracle.decisions(degradable)
        outcomes.append((failed, oracle.decisions(exact)))
        exact.store.close()
        degradable.store.close()
    assert outcomes[0] == outcomes[1]


def test_the_exact_bits_are_the_contract_digest(runs):
    for run in runs.values():
        if not run.faulted:
            assert oracle.contract_digest(run) == CONTRACT_DIGEST


def test_every_entry_point_has_a_runner_or_an_exemption():
    entry_points = {
        f"{cls.__name__}.{name}"
        for cls in (ProPolyneEngine, BatchEvaluator, QueryService,
                    BackendNode, ClusterFrontend)
        for name, _ in inspect.getmembers(cls, inspect.isfunction)
        if name.startswith(("evaluate_", "submit_"))
    }
    driven = {e for path in oracle.RUNNERS.values() for e in path.entry_points}
    assert entry_points - driven - set(oracle.EXEMPT) == set()
    assert driven | set(oracle.EXEMPT) <= entry_points  # nothing stale
    assert driven.isdisjoint(oracle.EXEMPT)


def test_the_fixture_exercises_faults_and_caches():
    # The net is only as good as what it catches: faults fired and were
    # absorbed, caches both hit and missed, every shard was read.
    def pairs(stack, column):
        last = rows_of(stack, TABLE.read_text().splitlines())[-1]
        value = dict(c.split("=") for c in last.split()[2:])[column]
        return [tuple(int(n) for n in entry.split(":")[0].split("/"))
                for entry in value.split(",")]

    for stack, layers in (("crc_faults", 1), ("crc_faults4", 4)):
        decided = pairs(stack, "faults")
        assert len(decided) == layers
        assert all(draws > 100 and fired > 10 for draws, fired in decided)
    (cached,) = pairs("shards4_cached", "cache")  # one cache per store
    assert all(n > 0 for n in cached)
    leaves = pairs("shards4", "leaf")
    assert len(leaves) == 4 and all(r > 0 and w > 0 for r, w in leaves)
    assert len(pairs("replicated", "leaf")) == 4


if __name__ == "__main__":
    TABLE.write_text("\n".join(table(run_all())) + "\n")
