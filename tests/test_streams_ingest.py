"""Tests for the multi-session ingest tier.

Three layers under test: the :class:`BandwidthCoordinator`'s
watermark/sustain/restore state machine (driven with synthetic
fullness readings, so the tests are deterministic), the
:class:`StreamingAdaptiveSampler.set_max_rate_hz` degrade hook
(coordinator-driven rate changes must never reintroduce NaN gaps or
break hold-last-value repair), and the :class:`IngestService`
end-to-end contract: hundreds of concurrent sessions, every submitted
sample committed exactly once, overload absorbed by degraded rates —
never by dropped data.
"""

import threading
import time

import numpy as np
import pytest

from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.core.errors import StreamError
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import MetricsRegistry, use_registry
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.streams import BandwidthCoordinator, IngestService
from repro.streams.dropout import GapFiller
from repro.streams.sample import Frame

RNG = np.random.default_rng(97)


def _engine(shape=(32, 32), **kwargs):
    return ProPolyneEngine(
        np.zeros(shape), max_degree=1, block_size=7, **kwargs
    )


def _to_point(sample):
    return (
        int(sample.sensor_id) % 32,
        int(min(31, abs(sample.value) * 4)),
    )


class TestBandwidthCoordinator:
    def test_validation(self):
        with pytest.raises(StreamError):
            BandwidthCoordinator(low_watermark=0.8, high_watermark=0.5)
        with pytest.raises(StreamError):
            BandwidthCoordinator(degrade_factor=1.5)
        with pytest.raises(StreamError):
            BandwidthCoordinator(min_scale=0.0)
        with pytest.raises(StreamError):
            BandwidthCoordinator(sustain_ticks=0)

    def test_one_spike_does_not_degrade(self):
        coord = BandwidthCoordinator(sustain_ticks=3)
        coord.observe(0.9)
        coord.observe(0.9)
        assert coord.scale == 1.0
        coord.observe(0.5)  # pressure not sustained: streak resets
        coord.observe(0.9)
        coord.observe(0.9)
        assert coord.scale == 1.0

    def test_sustained_pressure_degrades_to_floor(self):
        coord = BandwidthCoordinator(
            sustain_ticks=2, degrade_factor=0.5, min_scale=0.25
        )
        for _ in range(2):
            coord.observe(0.9)
        assert coord.scale == 0.5
        for _ in range(2):
            coord.observe(0.9)
        assert coord.scale == 0.25
        for _ in range(8):
            coord.observe(1.0)
        assert coord.scale == 0.25  # floor: degrade, never mute

    def test_drain_restores_step_by_step(self):
        coord = BandwidthCoordinator(sustain_ticks=1, degrade_factor=0.5)
        coord.observe(0.9)
        coord.observe(0.9)
        assert coord.scale == 0.25
        coord.observe(0.1)
        assert coord.scale == 0.5
        coord.observe(0.1)
        assert coord.scale == 1.0
        assert not coord.degraded

    def test_caps_applied_to_registered_samplers(self):
        coord = BandwidthCoordinator(sustain_ticks=1, degrade_factor=0.5)
        sampler = StreamingAdaptiveSampler(width=2, rate_hz=64.0)
        coord.register(sampler)
        coord.observe(0.9)
        assert sampler._max_rate_hz == pytest.approx(32.0)
        coord.observe(0.1)
        assert sampler._max_rate_hz is None
        # A sampler registered while degraded gets the current cap.
        coord.observe(0.9)
        late = StreamingAdaptiveSampler(width=2, rate_hz=64.0)
        coord.register(late)
        assert late._max_rate_hz == pytest.approx(32.0)
        coord.unregister(late)
        assert late._max_rate_hz is None

    def test_degraded_time_accumulates(self, sim_clock):
        # Degraded from t = 0 (scale 1/2, then 1/4, then back through
        # 1/2) until the restoring reading at t = 1.0; the later idle
        # 4 s at full rate add nothing.
        with use_registry(MetricsRegistry()) as reg:
            coord = BandwidthCoordinator(sustain_ticks=1)
            for pause, fullness in [
                (0.0, 0.9), (0.25, 0.9), (0.5, 0.1), (0.25, 0.1),
                (4.0, 0.5),
            ]:
                sim_clock.sleep(pause)
                coord.observe(fullness)
            assert coord.scale == 1.0 and sim_clock.now() == 5.0
            assert reg.counter("ingest.degraded_rate_seconds").value == 1.0


class TestSamplerRateCap:
    def test_cap_raises_decimation_immediately(self):
        sampler = StreamingAdaptiveSampler(width=3, rate_hz=64.0)
        assert (sampler._factors == 1).all()
        sampler.set_max_rate_hz(16.0)
        assert (sampler._factors >= 4).all()

    def test_cap_clamped_to_min_rate(self):
        sampler = StreamingAdaptiveSampler(
            width=1, rate_hz=64.0, min_rate_hz=8.0
        )
        sampler.set_max_rate_hz(0.001)
        # Degrade, don't silence: the cap can't push below min_rate_hz.
        assert sampler._factors[0] <= 64.0 / 8.0

    def test_invalid_cap_rejected(self):
        from repro.core.errors import AcquisitionError

        sampler = StreamingAdaptiveSampler(width=1, rate_hz=64.0)
        with pytest.raises(AcquisitionError):
            sampler.set_max_rate_hz(0.0)

    def test_lifting_cap_restores_at_next_window(self):
        sampler = StreamingAdaptiveSampler(
            width=1, rate_hz=32.0, window_seconds=1.0, min_rate_hz=1.0
        )
        sampler.set_max_rate_hz(2.0)
        capped = int(sampler._factors[0])
        assert capped >= 16
        sampler.set_max_rate_hz(None)
        # A busy signal re-estimates to a fast rate once the window
        # closes — the cap must not outlive its lifting.
        t = np.arange(128) / 32.0
        for x in np.sin(2 * np.pi * 6.0 * t):
            sampler.push(np.array([x]))
        assert int(sampler._factors[0]) < capped

    def test_rate_changes_never_reintroduce_nan_gaps(self):
        sampler = StreamingAdaptiveSampler(
            width=4, rate_hz=32.0, window_seconds=0.5
        )
        recorded = []
        for tick in range(160):
            frame = RNG.normal(size=4)
            if tick % 7 == 0:
                frame[tick % 4] = np.nan  # flaky sensor mid-session
            if tick == 40:
                sampler.set_max_rate_hz(8.0)  # coordinator degrades
            if tick == 100:
                sampler.set_max_rate_hz(None)  # drain: cap lifted
            recorded.extend(sampler.push(frame))
        assert recorded
        assert all(np.isfinite(s.value) for s in recorded)
        assert sampler.stats.dropouts > 0

    def test_hold_last_value_intact_under_cap(self):
        sampler = StreamingAdaptiveSampler(width=1, rate_hz=16.0)
        sampler.push(np.array([5.0]))
        sampler.set_max_rate_hz(4.0)
        out = []
        for _ in range(8):
            out.extend(sampler.push(np.array([np.nan])))
        assert all(s.value == 5.0 for s in out)


class TestGapFillerUnderRateChanges:
    def test_filled_frames_stay_finite_through_capped_sampler(self):
        frames = []
        for tick in range(96):
            values = RNG.normal(size=3)
            if tick % 5 == 0:
                values[tick % 3] = np.nan
            frames.append(Frame.from_array(tick / 32.0, values))
        filler = GapFiller(frames)
        sampler = StreamingAdaptiveSampler(
            width=3, rate_hz=32.0, window_seconds=1.0
        )
        recorded = []
        for i, frame in enumerate(filler):
            if i == 30:
                sampler.set_max_rate_hz(4.0)
            if i == 70:
                sampler.set_max_rate_hz(None)
            recorded.extend(sampler.push(frame.as_array()))
        assert filler.gaps_filled > 0
        assert recorded
        assert all(np.isfinite(s.value) for s in recorded)
        # The filler repaired upstream, so the sampler saw no gaps.
        assert sampler.stats.dropouts == 0


class TestIngestService:
    def test_validation(self):
        engine = _engine()
        with pytest.raises(StreamError):
            IngestService(engine, queue_capacity=0)
        with pytest.raises(StreamError):
            IngestService(engine, commit_batch=0)

    def test_duplicate_session_rejected(self):
        engine = _engine()
        service = IngestService(engine)
        sampler = StreamingAdaptiveSampler(width=1, rate_hz=16.0)
        service.open_session("a", sampler, _to_point)
        with pytest.raises(StreamError):
            service.open_session("a", sampler, _to_point)

    def test_closed_session_rejects_pushes(self):
        engine = _engine()
        with IngestService(engine) as service:
            session = service.open_session(
                "a", StreamingAdaptiveSampler(width=1, rate_hz=16.0),
                _to_point,
            )
            session.close()
            session.close()  # idempotent
            with pytest.raises(StreamError):
                session.push(np.zeros(1))
        assert service.sessions == 0

    def test_stop_does_not_wait_out_the_idle_poll(self):
        service = IngestService(_engine(), poll_seconds=5.0).start()
        committer = service._thread
        time.sleep(0.05)  # let the committer settle into its idle wait
        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 1.0
        assert not committer.is_alive()
        # The wake-up was consumed and accounted: flush() cannot hang.
        assert service._queue.unfinished_tasks == 0
        # A restarted service still commits and still stops promptly.
        with service:
            service.submit((1, 1))
            service.flush()
        assert service.committed_points == 1

    def test_hundred_sessions_zero_loss(self):
        engine = _engine()
        service = IngestService(
            engine, queue_capacity=2048, commit_batch=128
        )
        n_sessions, ticks = 120, 20
        with service:
            sessions = [
                service.open_session(
                    f"s{i}",
                    StreamingAdaptiveSampler(
                        width=2, rate_hz=float(ticks), window_seconds=1.0
                    ),
                    _to_point,
                )
                for i in range(n_sessions)
            ]
            assert service.sessions == n_sessions
            for _ in range(ticks):
                for session in sessions:
                    session.push(RNG.normal(size=2))
            service.flush()
            submitted = sum(s.submitted for s in sessions)
            for session in sessions:
                session.close()
        assert submitted == n_sessions * ticks * 2
        assert service.committed_points == submitted
        assert not service.failed_batches
        total = engine.evaluate_exact(
            RangeSumQuery.count([(0, 31), (0, 31)])
        )
        assert total == pytest.approx(submitted)

    def test_concurrent_producers_zero_loss(self):
        engine = _engine()
        service = IngestService(
            engine, queue_capacity=256, commit_batch=64
        )
        n_threads, per_thread = 8, 100
        with service:
            def produce(k):
                for j in range(per_thread):
                    service.submit(((k * 7 + j) % 32, j % 32))
            threads = [
                threading.Thread(target=produce, args=(k,))
                for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            service.flush()
        assert service.committed_points == n_threads * per_thread
        total = engine.evaluate_exact(
            RangeSumQuery.count([(0, 31), (0, 31)])
        )
        assert total == pytest.approx(n_threads * per_thread)

    def test_overload_degrades_then_recovers(self):
        engine = _engine()
        coord = BandwidthCoordinator(
            high_watermark=0.5, low_watermark=0.2,
            sustain_ticks=1, degrade_factor=0.5, min_scale=0.25,
        )
        service = IngestService(
            engine, queue_capacity=64, commit_batch=4,
            coordinator=coord, poll_seconds=0.005,
        )
        sampler = StreamingAdaptiveSampler(width=2, rate_hz=64.0)
        with use_registry(MetricsRegistry()) as reg:
            with service:
                session = service.open_session("s", sampler, _to_point)
                for _ in range(400):
                    session.push(RNG.normal(size=2))
                degraded_at_peak = coord.degraded
                service.flush()
                deadline = time.monotonic() + 5.0
                while coord.degraded and time.monotonic() < deadline:
                    time.sleep(0.01)
                session.close()
            assert degraded_at_peak or (
                reg.counter("ingest.degradations").value > 0
            )
            assert reg.counter("ingest.degraded_rate_seconds").value > 0
            assert not coord.degraded  # recovered once drained
            assert sampler._max_rate_hz is None
        # Degraded, not dropped: every recorded sample was committed.
        assert not service.failed_batches
        assert service.committed_points == session.submitted

    def test_write_faults_with_retries_lose_no_point(self):
        # 5 % of block writes fail; the device stack's retry re-drives
        # the (idempotent) group commit, so the service sees none of
        # it.  Every push is queued before the committer starts, so the
        # commit grouping -- and with it the seeded fault schedule -- is
        # the same on every run.  A group retries whole, so the attempt
        # count must outlast a ~15-block group drawing a fault per try:
        # 4 attempts lose a batch at 12 of 12 seeds, 16 at 1 of 40, 32
        # at 0 of 40.
        engine = _engine(storage=StorageSpec(
            shards=2,
            fault_plan=FaultPlan(seed=31, write_error_rate=0.05),
            retry_policy=RetryPolicy(max_attempts=32, base_delay_s=0),
        ))
        service = IngestService(engine, commit_batch=32)
        rng = np.random.default_rng(41)
        with use_registry(MetricsRegistry()) as reg:
            sessions = [
                service.open_session(
                    f"s{i}",
                    StreamingAdaptiveSampler(
                        width=2, rate_hz=20.0, window_seconds=1.0
                    ),
                    _to_point,
                )
                for i in range(8)
            ]
            for _ in range(20):
                for session in sessions:
                    session.push(rng.normal(size=2))
            with service:
                service.flush()
                for session in sessions:
                    session.close()
            injected = reg.counter("faults.injected.write_errors").value
        submitted = sum(s.submitted for s in sessions)
        assert submitted == 8 * 20 * 2
        assert injected >= 1  # the plan fired: not a vacuous pass
        assert not service.failed_batches
        assert service.committed_points == submitted
        total = engine.evaluate_exact(
            RangeSumQuery.count([(0, 31), (0, 31)])
        )
        assert total == pytest.approx(submitted)

    def test_commit_failure_keeps_points(self):
        engine = _engine()

        def explode(payloads):
            raise OSError("device gone")

        engine.store.store_blocks = explode
        with use_registry(MetricsRegistry()) as reg:
            with IngestService(engine, commit_batch=8) as service:
                for i in range(8):
                    service.submit((i, i))
                service.flush()
            assert reg.counter("ingest.commit_failures").value >= 1
        assert service.failed_batches
        points = [p for batch, _ in service.failed_batches for p in batch]
        assert len(points) == 8
