"""Graceful degradation of query evaluation under faults and deadlines.

The two contracts under test:

* **bitwise identity** — with no fault plan and no deadline pressure,
  ``evaluate_degradable`` (and the service's ``submit_degradable``)
  returns *exactly* the float ``evaluate_exact`` returns, not merely a
  close one;
* **never silent, never unhandled** — a degraded answer is flagged,
  carries a finite guaranteed error bound and a reason, and a fault
  storm produces degradation, not exceptions.
"""

import numpy as np
import pytest

from repro.core.errors import StorageUnavailable
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.query.explain import explain, provenance_of
from repro.query.propolyne import ProPolyneEngine, QueryOutcome
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService
from repro.storage.device import StorageSpec


def build_engine(**resilience) -> ProPolyneEngine:
    rng = np.random.default_rng(11)
    cube = rng.poisson(2.0, (32, 32)).astype(float)
    return ProPolyneEngine(
        cube, max_degree=1, block_size=7,
        storage=StorageSpec(cache_blocks=8, **resilience),
    )


def workload(n=12, seed=23):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n):
        lo1 = int(rng.integers(0, 20))
        lo2 = int(rng.integers(0, 20))
        queries.append(
            RangeSumQuery.count(
                [(lo1, lo1 + int(rng.integers(3, 11))),
                 (lo2, lo2 + int(rng.integers(3, 11)))]
            )
        )
    return queries


class TestBitwiseIdentity:
    def test_degradable_equals_exact_with_idle_resilience_stack(self):
        # Retry policy + breaker configured but no faults injected: the
        # resilient read path must not perturb the answer either.
        engine = build_engine(
            retry_policy=RetryPolicy(), breaker=CircuitBreaker()
        )
        reference = build_engine()
        for query in workload():
            assert (
                engine.evaluate_degradable(query).value
                == reference.evaluate_exact(query)
            )

    def test_empty_query_is_exact_zero(self):
        engine = build_engine()
        empty = RangeSumQuery.count([(5, 4), (0, 31)])
        outcome = engine.evaluate_degradable(empty)
        assert outcome == QueryOutcome(0.0, False, 0.0, 0.0, 0, None)

    def test_service_degradable_matches_exact(self):
        engine = build_engine()
        queries = workload()
        truth = [engine.evaluate_exact(q) for q in queries]
        with QueryService(engine, workers=3, queue_depth=32) as service:
            futures = [
                service.submit_degradable(q, block=True) for q in queries
            ]
            outcomes = [f.result(timeout=60) for f in futures]
        assert [o.value for o in outcomes] == truth
        assert not any(o.degraded for o in outcomes)
        assert service.degraded == 0


class TestDeadlineDegradation:
    def test_zero_deadline_degrades_with_finite_bound(self):
        engine = build_engine()
        query = workload(n=1)[0]
        outcome = engine.evaluate_degradable(query, deadline_s=0.0)
        assert outcome.degraded
        assert outcome.reason == "deadline"
        assert np.isfinite(outcome.error_bound)
        assert outcome.error_bound > 0.0
        # The bound is a real guarantee on the delivered estimate.
        exact = engine.evaluate_exact(query)
        assert abs(outcome.value - exact) <= outcome.error_bound + 1e-9

    def test_deadline_checked_between_blocks_not_mid_read(self):
        # A fake clock that jumps past the deadline after the first
        # fetched block: exactly one block must have been read.
        engine = build_engine()
        query = workload(n=1)[0]
        # started, the post-priming check, then the post-block-1 check.
        ticks = iter([0.0, 0.0] + [10.0] * 100)
        outcome = engine.evaluate_degradable(
            query, deadline_s=5.0, clock=lambda: next(ticks)
        )
        assert outcome.degraded
        assert outcome.reason == "deadline"
        assert outcome.blocks_read == 1

    def test_generous_deadline_stays_exact(self):
        engine = build_engine()
        query = workload(n=1)[0]
        outcome = engine.evaluate_degradable(query, deadline_s=300.0)
        assert not outcome.degraded
        assert outcome.value == engine.evaluate_exact(query)

    def test_service_default_deadline_applies(self):
        engine = build_engine()
        query = workload(n=1)[0]
        with QueryService(
            engine, workers=1, queue_depth=8, default_deadline_s=0.0
        ) as service:
            outcome = service.submit_degradable(query).result(timeout=60)
        assert outcome.degraded
        assert outcome.reason == "deadline"
        assert service.degraded == 1


class TestStorageUnavailableDegradation:
    def storm_engine(self, threshold=2):
        # Every read fails, retries exhaust instantly, breaker trips.
        return build_engine(
            fault_plan=FaultPlan(seed=4, read_error_rate=1.0),
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, budget_s=0.0
            ),
            breaker=CircuitBreaker(
                failure_threshold=threshold, recovery_timeout_s=60.0
            ),
        )

    def test_fault_storm_degrades_instead_of_raising(self):
        engine = self.storm_engine()
        for query in workload(n=4):
            outcome = engine.evaluate_degradable(query)
            assert outcome.degraded
            assert outcome.reason == "storage_unavailable"
            assert np.isfinite(outcome.error_bound)
            assert outcome.blocks_read == 0
            assert outcome.value == 0.0  # the zero-I/O prior estimate

    def test_breaker_trips_and_fails_fast(self):
        engine = self.storm_engine(threshold=1)
        engine.evaluate_degradable(workload(n=1)[0])
        assert engine.breaker.state == "open"
        assert engine.breaker.trips >= 1
        # Subsequent plain exact queries fail fast with the typed error.
        with pytest.raises(StorageUnavailable):
            engine.evaluate_exact(workload(n=1)[0])

    def test_exact_path_raises_typed_error_under_storm(self):
        engine = self.storm_engine()
        with pytest.raises(StorageUnavailable):
            engine.evaluate_exact(workload(n=1)[0])

    def test_service_surfaces_degraded_count(self):
        engine = self.storm_engine()
        queries = workload(n=6)
        with QueryService(engine, workers=2, queue_depth=16) as service:
            futures = [
                service.submit_degradable(q, block=True) for q in queries
            ]
            outcomes = [f.result(timeout=60) for f in futures]
        assert all(o.degraded for o in outcomes)
        assert service.degraded == len(queries)

    def test_partial_outage_keeps_prefix_of_blocks(self):
        # Reads start failing partway through: the outcome keeps every
        # block fetched before the outage and bounds the remainder.
        engine = build_engine(
            fault_plan=FaultPlan(seed=8, read_error_rate=0.4),
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay_s=0.0
            ),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_timeout_s=60.0
            ),
        )
        exact_ref = build_engine()
        degraded_seen = False
        for query in workload(n=8, seed=31):
            outcome = engine.evaluate_degradable(query)
            truth = exact_ref.evaluate_exact(query)
            if outcome.degraded:
                degraded_seen = True
                assert outcome.reason == "storage_unavailable"
                assert abs(outcome.value - truth) <= (
                    outcome.error_bound + 1e-6 * max(1.0, abs(truth))
                )
        assert degraded_seen


class TestSameBitsAcrossPaths:
    """Every consumer of the one block schedule, on a cube whose axes
    are zero-padded (30 x 40 -> 32 x 64) and sharded four ways."""

    @staticmethod
    def padded_engine(**storage) -> ProPolyneEngine:
        cube = np.random.default_rng(17).poisson(2.0, (30, 40)).astype(float)
        return ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(shards=4, **storage),
        )

    @staticmethod
    def queries(n=10, seed=29):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            lo = rng.integers(0, (20, 25))
            hi = lo + rng.integers(1, (10, 15))
            ranges = [(int(a), int(b)) for a, b in zip(lo, hi)]
            out.append(
                RangeSumQuery.weighted(ranges, {1: 1}) if i % 3 == 2
                else RangeSumQuery.count(ranges)
            )
        return out

    @staticmethod
    def shard_reads(engine) -> list:
        shards = engine.store.storage_stats()["inner"]["per_shard"]
        return [shard["reads"] for shard in shards]

    def test_degradable_is_exact_live_as_of_and_served(self):
        engine = self.padded_engine()
        engine.enable_versioning()
        queries = self.queries()
        then = [engine.evaluate_exact(q) for q in queries]
        engine.inserter.insert_batch(
            [(3, 4), (29, 39), (3, 4)], [1.0, 2.5, -1.0]
        )
        now = [engine.evaluate_exact(q) for q in queries]
        assert now != then
        view = engine.as_of_view(0)
        for query, live, past in zip(queries, now, then):
            assert engine.evaluate_degradable(query).value == live
            assert view.evaluate_degradable(query).value == past
            assert engine.evaluate_degradable(query, as_of=0).value == past
        with QueryService(engine, workers=3, queue_depth=32) as service:
            served = [
                service.submit_degradable(q, block=True) for q in queries
            ] + [
                service.submit_degradable(q, block=True, as_of=0)
                for q in queries
            ]
            outcomes = [f.result(timeout=60) for f in served]
        assert [o.value for o in outcomes] == now + then
        assert not any(o.degraded for o in outcomes)
        engine.store.close()

    def test_provenance_plans_what_exact_reads_with_no_io(self):
        engine = self.padded_engine()  # no cache: every block is a read
        for query in self.queries():
            before = self.shard_reads(engine)
            outcome = engine.evaluate_degradable(query)
            per_shard = [
                after - was
                for was, after in zip(before, self.shard_reads(engine))
            ]
            before = self.shard_reads(engine)
            prov = provenance_of(engine, query, outcome)
            assert self.shard_reads(engine) == before
            assert prov.blocks_planned == sum(per_shard) == outcome.blocks_read
            assert prov.blocks_by_shard == {
                shard: n for shard, n in enumerate(per_shard) if n
            }
            before = self.shard_reads(engine)
            engine.evaluate_exact(query)
            assert [
                after - was
                for was, after in zip(before, self.shard_reads(engine))
            ] == per_shard
        engine.store.close()

    def test_zero_deadline_keeps_the_priming_bound(self):
        engine = self.padded_engine()
        for query in self.queries():
            before = engine.store.io_snapshot()
            outcome = engine.evaluate_degradable(query, deadline_s=0)
            assert engine.store.io_since(before).reads == 0
            assert outcome.degraded and outcome.reason == "deadline"
            assert outcome.blocks_read == 0 and outcome.value == 0.0
            assert np.isfinite(outcome.error_bound)
            # Same masses, same order: the plan's bound is the priming
            # step's, to the bit.
            assert outcome.error_bound == explain(engine, query).a_priori_bound
        engine.store.close()

    def test_one_failed_shard_of_four_skips_only_its_blocks(self):
        engine = self.padded_engine(
            fault_plan=FaultPlan(seed=3, read_error_rate=1.0),
            fault_shards=(2,),
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, budget_s=0.0
            ),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_timeout_s=60.0
            ),
        )
        clean = self.padded_engine()
        for query in self.queries():
            outcome = engine.evaluate_degradable(query)
            planned = provenance_of(engine, query, outcome).blocks_by_shard
            assert outcome.blocks_skipped == planned.get(2, 0)
            assert outcome.blocks_read == (
                sum(planned.values()) - planned.get(2, 0)
            )
            assert outcome.degraded == (2 in planned)
            truth = clean.evaluate_exact(query)
            if outcome.degraded:
                assert abs(outcome.value - truth) <= outcome.error_bound + 1e-9
            else:
                assert outcome.value == truth
        engine.store.close()
        clean.store.close()
