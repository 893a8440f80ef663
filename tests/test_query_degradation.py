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
    def test_degradable_equals_exact_without_faults(self):
        engine = build_engine()
        for query in workload():
            outcome = engine.evaluate_degradable(query)
            assert isinstance(outcome, QueryOutcome)
            assert not outcome.degraded
            assert outcome.reason is None
            assert outcome.error_bound == 0.0
            assert outcome.value == engine.evaluate_exact(query)  # bitwise

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
