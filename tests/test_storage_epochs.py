"""Tests for epoch-versioned storage (repro.storage.epochs).

The contract under test is *bitwise* time travel: an ``as_of=e`` query
must return exactly the float the same query returned when epoch ``e``
was current — pre-image reconstruction, identical stored values,
identical reduction order.  Plus the retention mechanics (prune/floor,
the ``retain`` auto-pruning knob) and the read-only discipline of as-of
views.
"""

import numpy as np
import pytest

from repro.core.errors import QueryError, StorageError
from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService
from repro.storage.device import StorageSpec
from repro.storage.epochs import EpochLog

RNG = np.random.default_rng(41)
SHAPE = (16, 16)
QUERY = RangeSumQuery.count([(2, 11), (3, 14)])


def _engine(**kwargs):
    cube = np.arange(256, dtype=float).reshape(SHAPE) % 7
    kwargs.setdefault("storage", StorageSpec(shards=2, cache_blocks=8))
    return ProPolyneEngine(cube, max_degree=1, block_size=4, **kwargs)


def _history(engine, batches=4, points=30, rng_seed=5):
    """Apply ``batches`` commits; return the live answer after each."""
    rng = np.random.default_rng(rng_seed)
    inserter = BatchInserter(engine)
    answers = [engine.evaluate_exact(QUERY)]
    for b in range(batches):
        pts = [tuple(p) for p in rng.integers(0, 16, size=(points, 2))]
        inserter.insert_batch(pts, [float(b + 1)] * points)
        answers.append(engine.evaluate_exact(QUERY))
    return answers


class TestEpochLog:
    def test_starts_at_epoch_zero(self):
        engine = _engine()
        assert engine.epoch == 0
        engine.enable_versioning()
        assert engine.epoch == 0
        assert engine.epoch_log.stats()["records"] == 0

    def test_every_commit_bumps_the_epoch(self):
        engine = _engine()
        engine.enable_versioning()
        _history(engine, batches=3)
        assert engine.epoch == 3
        stats = engine.epoch_log.stats()
        assert stats["records"] == 3
        assert stats["points"] == 90
        assert stats["blocks_recorded"] > 0

    def test_enable_versioning_is_idempotent(self):
        engine = _engine()
        log = engine.enable_versioning()
        assert engine.enable_versioning() is log

    def test_scalar_insert_is_versioned_too(self):
        engine = _engine()
        engine.enable_versioning()
        before = engine.evaluate_exact(QUERY)
        engine.insert((5, 5), 3.0)
        assert engine.epoch == 1
        assert engine.evaluate_exact(QUERY, as_of=0) == before

    def test_retain_validation(self):
        with pytest.raises(StorageError):
            EpochLog(retain=0)


class TestAsOfBitwise:
    def test_every_recorded_epoch_matches_history(self):
        engine = _engine()
        engine.enable_versioning()
        answers = _history(engine, batches=4)
        for epoch, expected in enumerate(answers):
            got = engine.evaluate_exact(QUERY, as_of=epoch)
            assert got == expected, f"epoch {epoch} drifted"

    def test_epoch_zero_vs_latest(self):
        engine = _engine()
        engine.enable_versioning()
        answers = _history(engine, batches=4)
        assert engine.evaluate_exact(QUERY, as_of=0) == answers[0]
        assert engine.evaluate_exact(QUERY, as_of=4) == answers[-1]
        assert engine.evaluate_exact(QUERY) == answers[-1]

    def test_as_of_view_norms_reproduce_historical_bounds(self):
        engine = _engine()
        engine.enable_versioning()
        view0_norms_before = dict(engine._block_norms)
        _history(engine, batches=2)
        view = engine.as_of_view(0)
        assert view._block_norms == view0_norms_before

    def test_degradable_as_of_matches_exact(self):
        engine = _engine()
        engine.enable_versioning()
        answers = _history(engine, batches=3)
        outcome = engine.evaluate_degradable(QUERY, as_of=1)
        assert not outcome.degraded
        assert outcome.value == answers[1]

    def test_as_of_requires_versioning(self):
        engine = _engine()
        with pytest.raises(QueryError):
            engine.evaluate_exact(QUERY, as_of=0)

    def test_out_of_range_epoch_rejected(self):
        engine = _engine()
        engine.enable_versioning()
        _history(engine, batches=2)
        with pytest.raises(StorageError):
            engine.as_of_view(3)
        with pytest.raises(StorageError):
            engine.as_of_view(-1)

    def test_views_are_read_only(self):
        engine = _engine()
        engine.enable_versioning()
        _history(engine, batches=1)
        view = engine.as_of_view(0)
        with pytest.raises(StorageError):
            view.insert((0, 0))


class TestRetention:
    def test_prune_raises_the_floor(self):
        engine = _engine()
        engine.enable_versioning()
        answers = _history(engine, batches=4)
        dropped = engine.epoch_log.prune(2)
        assert dropped == 2
        assert engine.epoch_log.floor == 2
        with pytest.raises(StorageError):
            engine.evaluate_exact(QUERY, as_of=1)
        assert engine.evaluate_exact(QUERY, as_of=2) == answers[2]
        assert engine.evaluate_exact(QUERY, as_of=4) == answers[4]

    def test_retain_auto_prunes(self):
        engine = _engine()
        engine.enable_versioning(retain=2)
        answers = _history(engine, batches=5)
        log = engine.epoch_log
        assert log.current == 5
        assert log.floor == 3
        assert log.stats()["records"] == 2
        assert engine.evaluate_exact(QUERY, as_of=3) == answers[3]

    def test_prune_is_idempotent(self):
        engine = _engine()
        engine.enable_versioning()
        _history(engine, batches=3)
        assert engine.epoch_log.prune(1) == 1
        assert engine.epoch_log.prune(1) == 0


class TestAsOfThroughService:
    def test_service_as_of_exact_and_degradable(self):
        engine = _engine()
        engine.enable_versioning()
        answers = _history(engine, batches=3)
        with QueryService(engine, workers=2) as service:
            live = service.submit_exact(QUERY).result(timeout=10)
            past = service.submit_exact(QUERY, as_of=1).result(timeout=10)
            outcome = service.submit_degradable(
                QUERY, as_of=2
            ).result(timeout=10)
        assert live == answers[-1]
        assert past == answers[1]
        assert outcome.value == answers[2]
        assert outcome.provenance is not None
        assert outcome.provenance.epoch == 2

    def test_as_of_composes_with_the_store_cache(self):
        # Served as-of reads that fall through to live storage go
        # through the store's cache, answering as the uncached store.
        engine = _engine()
        engine.enable_versioning()
        answers = _history(engine, batches=2)
        plain = _engine(storage=StorageSpec(shards=2))
        plain.enable_versioning()
        assert _history(plain, batches=2) == answers
        with QueryService(engine, workers=2) as service:
            past = service.submit_exact(QUERY, as_of=1).result(timeout=10)
        assert past == answers[1] == plain.evaluate_exact(QUERY, as_of=1)


class TestAsOfUnderFaults:
    def test_dead_shard_degrades_as_of_honestly(self):
        # Blocks no later epoch touched fall through to live storage,
        # so a dead shard degrades the historical answer with a bound
        # instead of inventing history.
        engine = _engine(
            storage=StorageSpec(
                shards=2,
                fault_plan=FaultPlan(seed=3, read_error_rate=1.0),
                fault_shards=(0,),
                retry_policy=RetryPolicy(
                    max_attempts=2, base_delay_s=0.0, budget_s=0.0
                ),
                breaker=CircuitBreaker(
                    failure_threshold=1, recovery_timeout_s=60.0
                ),
            )
        )
        engine.enable_versioning()
        engine.store.set_injecting(False)
        # Commits pinned to one cell: most blocks stay untouched, so an
        # as-of read must fall through to the (now dead) live store.
        inserter = BatchInserter(engine)
        for _ in range(2):
            inserter.insert_batch([(0, 0)] * 10, [1.0] * 10)
        engine.store.set_injecting(True)
        outcome = engine.evaluate_degradable(QUERY, as_of=0)
        assert outcome.degraded
        assert outcome.reason == "storage_unavailable"
        assert outcome.error_bound > 0.0
        assert outcome.blocks_skipped > 0
