"""Tests for the causal streaming sampler (repro.acquisition.streaming)."""

import numpy as np
import pytest

from repro.core.errors import AcquisitionError
from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel


RATE = 100.0


def make_session(duration=20.0, seed=0, quiet_second_half=False):
    sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
    n = int(duration * RATE)
    activity = None
    if quiet_second_half:
        activity = np.ones(n)
        activity[n // 2 :] = 0.05
    return sim.capture(duration, np.random.default_rng(seed), activity=activity)


class TestCausality:
    def test_prefix_decisions_identical(self):
        """Decisions for tick t must depend only on ticks < t: running the
        sampler on a prefix yields exactly the prefix of the full run."""
        session = make_session(duration=6.0)
        full = StreamingAdaptiveSampler(width=28, rate_hz=RATE)
        full_samples = full.process(session)
        half = StreamingAdaptiveSampler(width=28, rate_hz=RATE)
        half_samples = half.process(session[: session.shape[0] // 2])
        cutoff = (session.shape[0] // 2) / RATE
        full_prefix = [s for s in full_samples if s.timestamp < cutoff]
        assert half_samples == full_prefix

    def test_first_window_records_everything(self):
        session = make_session(duration=2.0)
        sampler = StreamingAdaptiveSampler(
            width=28, rate_hz=RATE, window_seconds=1.0
        )
        first_window = session[: sampler._window_ticks]
        recorded = sampler.process(first_window)
        assert len(recorded) == first_window.size


class TestAdaptation:
    def test_rate_drops_after_quiet_onset(self):
        session = make_session(duration=20.0, quiet_second_half=True)
        sampler = StreamingAdaptiveSampler(width=28, rate_hz=RATE)
        n = session.shape[0]
        first = sampler.process(session[: n // 2])
        second = sampler.process(session[n // 2 :])
        # The second (quiet) half is recorded far sparser.
        assert len(second) < len(first) / 2

    def test_bandwidth_comparable_to_offline_adaptive(self):
        from repro.acquisition.sampling import AdaptiveSampler

        session = make_session(duration=20.0)
        offline = AdaptiveSampler().sample(session, RATE)
        online = StreamingAdaptiveSampler(width=28, rate_hz=RATE)
        online_samples = online.process(session)
        # Causal decisions lag one window, so allow head-room; the orders
        # of magnitude must match.
        assert len(online_samples) < 3 * offline.samples_recorded

    def test_reconstruction_quality(self):
        session = make_session(duration=20.0)
        sampler = StreamingAdaptiveSampler(width=28, rate_hz=RATE)
        samples = sampler.process(session)
        # Per-sensor linear interpolation of the recorded readings.
        ticks = np.arange(session.shape[0])
        err = 0.0
        for s in range(28):
            mine = [(int(round(x.timestamp * RATE)), x.value)
                    for x in samples if x.sensor_id == s]
            t_kept, v_kept = zip(*mine)
            approx = np.interp(ticks, t_kept, v_kept)
            err += float(np.mean((approx - session[:, s]) ** 2))
        nrmse = np.sqrt(err / 28) / (session.max() - session.min())
        assert nrmse < 0.05

    def test_stats_accounting(self):
        session = make_session(duration=5.0)
        sampler = StreamingAdaptiveSampler(width=28, rate_hz=RATE)
        samples = sampler.process(session)
        assert sampler.stats.ticks_seen == session.shape[0]
        assert sampler.stats.samples_recorded == len(samples)
        assert sampler.stats.rate_updates > 0


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(AcquisitionError):
            StreamingAdaptiveSampler(width=0, rate_hz=RATE)
        with pytest.raises(AcquisitionError):
            StreamingAdaptiveSampler(width=2, rate_hz=0.0)
        with pytest.raises(AcquisitionError):
            StreamingAdaptiveSampler(width=2, rate_hz=RATE, sensor_ids=[1])

    def test_bad_frame(self):
        sampler = StreamingAdaptiveSampler(width=3, rate_hz=RATE)
        with pytest.raises(AcquisitionError):
            sampler.push(np.zeros(4))
