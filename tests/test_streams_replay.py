"""Tests for session record/replay (repro.streams.replay).

The headline contract: replaying a recorded session into an engine
seeded with the same starting state leaves **bitwise-identical** stored
coefficients — regardless of replay commit grouping, because the batch
append kernel is order-preserving.  Around it: the JSON-lines record
format round-trips exactly, coordinator degradations land in the log
as ``rate_change`` events, empty sessions replay as no-ops, pacing
honours the speed knob deterministically (injected clock/sleep), and a
replay onto a faulty stack stays degraded-but-auditable.
"""

import numpy as np
import pytest

from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.core.errors import StreamError
from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs import MetricsRegistry, use_registry
from repro.query.explain import attach_provenance
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.streams import BandwidthCoordinator, IngestService
from repro.streams.replay import (
    REPLAY_SCHEMA,
    ReplayEvent,
    SessionRecord,
    SessionRecorder,
    SessionReplayer,
)

RNG = np.random.default_rng(53)
WIDTH = 4


def _engine(shape=(16, 16), **kwargs):
    return ProPolyneEngine(
        np.zeros(shape), max_degree=1, block_size=5, **kwargs
    )


def _to_point(sample):
    return (
        int(sample.sensor_id) % 16,
        int(min(15, abs(sample.value) * 4)),
    )


def _record_session(engine, pushes=60, recorder=None, session_id="s1"):
    """Drive one recorded session through a live ingest service."""
    recorder = recorder if recorder is not None else SessionRecorder()
    sampler = StreamingAdaptiveSampler(width=WIDTH, rate_hz=32.0)
    rng = np.random.default_rng(11)
    with IngestService(
        engine, queue_capacity=512, commit_batch=16, recorder=recorder
    ) as service:
        session = service.open_session(session_id, sampler, _to_point)
        for _ in range(pushes):
            session.push(rng.normal(size=WIDTH))
        session.close()
        service.flush()
    return recorder.record(session_id)


class TestRecordFormat:
    def test_json_lines_round_trip_is_exact(self):
        record = _record_session(_engine())
        assert record.points > 0
        rt = SessionRecord.from_json(record.to_json())
        assert rt.to_json() == record.to_json()
        assert rt.events == record.events
        assert rt.closed

    def test_save_and_load(self, tmp_path):
        record = _record_session(_engine())
        path = record.save(tmp_path / "s1.replay.jsonl")
        loaded = SessionRecord.load(path)
        assert loaded.to_json() == record.to_json()

    def test_header_summarises_the_log(self):
        record = _record_session(_engine())
        header = record.header()
        assert header["schema"] == REPLAY_SCHEMA
        assert header["session_id"] == "s1"
        assert header["rate_hz"] == 32.0
        assert header["events"] == len(record.events)
        assert header["points"] == record.points
        assert header["closed"] is True

    def test_bad_schema_and_empty_text_rejected(self):
        with pytest.raises(StreamError):
            SessionRecord.from_json("")
        with pytest.raises(StreamError):
            SessionRecord.from_json('{"schema": "bogus/v9"}\n')

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(StreamError):
            ReplayEvent.from_dict({"kind": "mystery", "t": 0.0})


class TestRecorder:
    def test_double_begin_rejected(self):
        recorder = SessionRecorder()
        sampler = StreamingAdaptiveSampler(width=WIDTH, rate_hz=32.0)
        recorder.begin("dup", sampler)
        with pytest.raises(StreamError):
            recorder.begin("dup", sampler)

    def test_pushes_after_end_are_ignored(self):
        recorder = SessionRecorder()
        sampler = StreamingAdaptiveSampler(width=WIDTH, rate_hz=32.0)
        recorder.begin("s", sampler)
        recorder.end("s")
        samples = sampler.push(np.zeros(WIDTH))
        recorder.on_push(
            "s", sampler, samples,
            [_to_point(s) for s in samples], [1.0] * len(samples),
        )
        assert recorder.record("s").points == 0

    def test_pop_is_retention_hygiene(self):
        record = _record_session(_engine())
        recorder = SessionRecorder()
        recorder._records["s1"] = record  # seed directly
        recorder._last_caps["s1"] = None
        recorder._last_t["s1"] = 0.0
        assert recorder.sessions() == ["s1"]
        assert recorder.pop("s1") is record
        assert recorder.sessions() == []
        with pytest.raises(StreamError):
            recorder.record("s1")

    def test_recorder_metrics(self):
        with use_registry(MetricsRegistry()) as reg:
            record = _record_session(_engine())
            assert reg.counter("replay.recorded_sessions").value == 1
            assert (
                reg.counter("replay.recorded_points").value
                == record.points
            )

    def test_coordinator_degradation_lands_as_rate_change(self):
        engine = _engine()
        recorder = SessionRecorder()
        coord = BandwidthCoordinator(
            sustain_ticks=1, degrade_factor=0.5, min_scale=0.25
        )
        sampler = StreamingAdaptiveSampler(width=WIDTH, rate_hz=32.0)
        rng = np.random.default_rng(13)
        with IngestService(
            engine, queue_capacity=512, commit_batch=16,
            recorder=recorder, coordinator=coord, poll_seconds=60.0,
        ) as service:
            session = service.open_session("deg", sampler, _to_point)
            for _ in range(10):
                session.push(rng.normal(size=WIDTH))
            coord.observe(0.95)  # sustained pressure: degrade now
            assert coord.degraded
            for _ in range(10):
                session.push(rng.normal(size=WIDTH))
            coord.observe(0.05)  # drained: restore
            for _ in range(10):
                session.push(rng.normal(size=WIDTH))
            session.close()
            service.flush()
        record = recorder.record("deg")
        assert record.rate_changes >= 2  # degradation + restoration
        caps = [
            e.max_rate_hz for e in record.events
            if e.kind == "rate_change"
        ]
        assert caps[0] == pytest.approx(16.0)
        assert caps[-1] is None


class TestReplayFidelity:
    def test_replay_is_bitwise_identical(self):
        original = _engine()
        record = _record_session(original, pushes=80)
        twin = _engine()
        applied = SessionReplayer(record).replay_into(twin, commit_batch=37)
        assert applied == record.points
        assert (
            twin.to_coefficients().tobytes()
            == original.to_coefficients().tobytes()
        )

    def test_commit_grouping_does_not_matter(self):
        record = _record_session(_engine(), pushes=40)
        coeffs = []
        for commit_batch in (1, 7, 1024):
            twin = _engine()
            SessionReplayer(record).replay_into(
                twin, commit_batch=commit_batch
            )
            coeffs.append(twin.to_coefficients().tobytes())
        assert coeffs[0] == coeffs[1] == coeffs[2]

    def test_empty_session_replays_as_noop(self):
        record = SessionRecord(session_id="empty", rate_hz=32.0)
        twin = _engine()
        before = twin.to_coefficients().tobytes()
        assert SessionReplayer(record).replay_into(twin) == 0
        assert list(SessionReplayer(record).events()) == []
        assert twin.to_coefficients().tobytes() == before

    def test_replay_through_a_live_service(self):
        record = _record_session(_engine(), pushes=40)
        twin = _engine()
        with IngestService(twin, commit_batch=8) as service:
            submitted = SessionReplayer(record).replay_through(service)
            service.flush()
        assert submitted == record.points
        assert service.committed_points == record.points

    def test_replay_validation(self):
        record = SessionRecord(session_id="x")
        with pytest.raises(StreamError):
            SessionReplayer(record, speed=0.0)
        with pytest.raises(StreamError):
            SessionReplayer(record).replay_into(_engine(), commit_batch=0)


class TestPacing:
    """Pacing on the ``sim_clock`` fixture: the waits are exact, and the
    replay ends at the recorded span divided by the speed."""

    def _paced_waits(self, clock, record, speed):
        events = list(SessionReplayer(record, speed=speed).events())
        return events, clock.slept

    def _record(self):
        return SessionRecord(
            session_id="p",
            rate_hz=4.0,
            events=[
                ReplayEvent(kind="point", t=0.0, point=(0, 0), weight=1.0),
                ReplayEvent(kind="point", t=0.5, point=(1, 1), weight=1.0),
                ReplayEvent(kind="point", t=1.0, point=(2, 2), weight=1.0),
            ],
        )

    def test_real_time_pacing(self, sim_clock):
        events, waits = self._paced_waits(sim_clock, self._record(), 1.0)
        assert len(events) == 3
        assert waits == [0.5, 0.5] and sim_clock.now() == 1.0

    def test_double_speed_halves_waits(self, sim_clock):
        _, waits = self._paced_waits(sim_clock, self._record(), 2.0)
        assert waits == [0.25, 0.25] and sim_clock.now() == 0.5

    def test_half_speed_doubles_waits(self, sim_clock):
        _, waits = self._paced_waits(sim_clock, self._record(), 0.5)
        assert waits == [1.0, 1.0] and sim_clock.now() == 2.0

    def test_as_fast_as_possible_never_sleeps(self, sim_clock):
        _, waits = self._paced_waits(sim_clock, self._record(), None)
        assert waits == [] and sim_clock.now() == 0.0


class TestDegradedButAuditable:
    def test_replay_onto_faulty_stack_keeps_audit_trail(self):
        # Replay lands cleanly (injection off), then shard 0 dies: the
        # replayed history answers degradable queries with an explicit
        # bound and a provenance trail naming the open breaker.
        record = _record_session(_engine(), pushes=60)
        twin = _engine(
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
        twin.store.set_injecting(False)
        SessionReplayer(record).replay_into(twin)
        twin.store.set_injecting(True)
        query = RangeSumQuery.count([(2, 11), (3, 14)])
        outcome = twin.evaluate_degradable(query)
        assert outcome.degraded
        assert outcome.reason == "storage_unavailable"
        assert outcome.error_bound > 0.0
        outcome = attach_provenance(twin, query, outcome)
        prov = outcome.provenance
        assert prov.degraded is True
        assert "open" in prov.breaker_states.values()
        assert prov.blocks_by_shard  # the plan is part of the audit


class TestReplayMetrics:
    def test_replay_counters(self):
        record = _record_session(_engine(), pushes=40)
        with use_registry(MetricsRegistry()) as reg:
            twin = _engine()
            SessionReplayer(record, speed=None).replay_into(twin)
            assert reg.counter("replay.sessions").value == 1
            assert reg.counter("replay.points").value == record.points
            assert reg.counter("replay.events").value == len(record.events)
            assert reg.gauge("replay.speed").value == 0.0
