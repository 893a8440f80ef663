"""RetryPolicy backoff properties and CircuitBreaker state machine.

The retry schedule is the pipeline's worst-case latency contract, so
its properties are asserted exhaustively over a grid of policies:
monotone growth, per-sleep ceiling, bounded jitter, and the hard total
budget.  Backoff and the breaker's closed / open / half-open machine
run on the ``sim_clock`` fixture: no real sleeping, exact durations.
"""

import itertools
import math
import random

import pytest

from repro.core.errors import StorageError, StorageUnavailable
from repro.faults import CircuitBreaker, ResilientCaller, RetryPolicy
from repro.faults.plan import InjectedReadError


def policy_grid():
    """A small property-test grid over the policy parameter space."""
    attempts = (1, 2, 4, 7)
    bases = (0.0, 0.001, 0.02)
    multipliers = (1.0, 1.5, 3.0)
    jitters = (0.0, 0.1, 0.5)
    for a, b, m, j in itertools.product(attempts, bases, multipliers, jitters):
        yield RetryPolicy(
            max_attempts=a, base_delay_s=b, multiplier=m,
            max_delay_s=0.05, jitter=j, budget_s=0.1,
        )


class TestRetryPolicyProperties:
    def test_validation(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(StorageError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(StorageError):
            RetryPolicy(base_delay_s=-1.0)

    def test_base_delays_monotone_capped_and_budgeted(self):
        for policy in policy_grid():
            delays = policy.base_delays()
            assert len(delays) <= policy.max_attempts - 1
            assert all(d <= policy.max_delay_s + 1e-12 for d in delays)
            assert sum(delays) <= policy.budget_s + 1e-9
            # Monotone non-decreasing except possibly the final
            # budget-clipped entry.
            body = delays[:-1]
            assert all(x <= y + 1e-12 for x, y in zip(body, body[1:]))

    def test_jittered_delays_bounded_by_jitter_fraction(self):
        for policy in policy_grid():
            base = [
                min(policy.base_delay_s * policy.multiplier**k,
                    policy.max_delay_s)
                for k in range(policy.max_attempts - 1)
            ]
            jittered = policy.delays(random.Random(99))
            assert len(jittered) <= len(base)
            spent = 0.0
            for raw, actual in zip(base, jittered):
                # Below the budget cut, each sleep lies in
                # [base, base * (1 + jitter)].
                upper = raw * (1.0 + policy.jitter)
                assert actual <= min(upper, policy.budget_s - spent) + 1e-12
                assert actual >= min(raw, policy.budget_s - spent) - 1e-12
                spent += actual
            assert spent <= policy.budget_s + 1e-9

    def test_delays_replay_for_equal_policies(self):
        a = RetryPolicy(seed=5)
        b = RetryPolicy(seed=5)
        assert a.delays() == b.delays()
        assert a.delays() == a.delays()  # fresh RNG per call

    def test_budget_clips_long_schedules(self):
        policy = RetryPolicy(
            max_attempts=50, base_delay_s=0.01, multiplier=1.0,
            max_delay_s=0.01, jitter=0.0, budget_s=0.035,
        )
        delays = policy.base_delays()
        assert sum(delays) == pytest.approx(0.035)
        assert len(delays) == 4  # 3 full sleeps + one clipped remainder


class TestRetryExecute:
    def test_recovers_after_transient_failures(self, sim_clock):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise InjectedReadError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.001, jitter=0.0)
        assert policy.execute(flaky) == "ok"
        assert len(calls) == 3
        assert sim_clock.slept == policy.base_delays()[:2]
        assert sim_clock.now() == sum(policy.base_delays()[:2])

    def test_gives_up_after_schedule_and_reraises(self, sim_clock):
        def always_fails():
            raise InjectedReadError("still down")

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.5)
        with pytest.raises(InjectedReadError):
            policy.execute(always_fails)
        # The whole jittered schedule was waited, and nothing else.
        assert sim_clock.slept == policy.delays()
        assert sim_clock.now() == sum(policy.delays())

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("caller bug")

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(ValueError):
            policy.execute(broken)
        assert len(calls) == 1

    def test_on_retry_hook_sees_attempts_and_errors(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise InjectedReadError("x")
            return 1

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        policy.execute(
            flaky,
            on_retry=lambda attempt, exc: seen.append((attempt, type(exc))),
        )
        assert seen == [(1, InjectedReadError), (2, InjectedReadError)]


@pytest.mark.usefixtures("sim_clock")
class TestCircuitBreaker:
    def make(self, **kwargs):
        return CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            recovery_timeout_s=kwargs.pop("recovery_timeout_s", 1.0),
            **kwargs,
        )

    def test_validation(self):
        with pytest.raises(StorageError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(StorageError):
            CircuitBreaker(recovery_timeout_s=-1.0)
        with pytest.raises(StorageError):
            CircuitBreaker(half_open_probes=0)

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_success_resets_the_failure_streak(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_timeout_then_closes_on_probe_success(
        self, sim_clock
    ):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        sim_clock.sleep(1.0)
        assert breaker.state == "half-open"
        assert breaker.allow()        # the probe slot
        assert not breaker.allow()    # no second probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self, sim_clock):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        sim_clock.sleep(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        # The dwell restarts from the failed probe.
        sim_clock.sleep(0.5)
        assert not breaker.allow()
        sim_clock.sleep(0.5)
        assert breaker.allow()

    def test_probes_open_exactly_at_the_recovery_timeout(self, sim_clock):
        # Open at t = 0, then at t = 1.0 after a failed probe: each time
        # the last representable instant before the dwell ends is still
        # open, and the dwell's end itself admits a probe.
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        for opened_at in (0.0, 1.0):
            end = opened_at + 1.0
            sim_clock.sleep(math.nextafter(end, 0.0) - sim_clock.now())
            assert sim_clock.now() < end
            assert breaker.state == "open" and not breaker.allow()
            sim_clock.sleep(end - sim_clock.now())
            assert sim_clock.now() == end
            assert breaker.state == "half-open" and breaker.allow()
            breaker.record_failure()
        assert breaker.trips == 3

    def test_snapshot_reports_operator_view(self):
        breaker = self.make(name="teststore")
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {
            "name": "teststore",
            "state": "closed",
            "consecutive_failures": 1,
            "trips": 0,
            "rejections": 0,
        }


class TestResilientCaller:
    def test_wraps_exhausted_retries_as_storage_unavailable(self):
        caller = ResilientCaller(
            RetryPolicy(max_attempts=2, base_delay_s=0.0), None
        )

        def always_fails():
            raise InjectedReadError("down")

        with pytest.raises(StorageUnavailable):
            caller.call(always_fails)

    @pytest.mark.usefixtures("sim_clock")
    def test_breaker_opens_then_fails_fast_without_calling(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_timeout_s=1.0)
        caller = ResilientCaller(None, breaker)
        calls = []

        def always_fails():
            calls.append(1)
            raise InjectedReadError("down")

        for _ in range(2):
            with pytest.raises(StorageUnavailable):
                caller.call(always_fails)
        assert len(calls) == 2
        with pytest.raises(StorageUnavailable):
            caller.call(always_fails)
        assert len(calls) == 2  # rejected before the callable ran

    def test_success_path_passes_result_through(self):
        caller = ResilientCaller(RetryPolicy(max_attempts=3), CircuitBreaker())
        assert caller.call(lambda: {"a": 1.0}) == {"a": 1.0}

    def test_non_transient_errors_do_not_count_against_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1)
        caller = ResilientCaller(None, breaker)

        def broken():
            raise KeyError("missing")

        with pytest.raises(KeyError):
            caller.call(broken)
        assert breaker.state == "closed"
