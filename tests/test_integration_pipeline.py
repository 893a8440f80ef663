"""Cross-subsystem integration: acquisition -> streams -> recognition, and
robustness under injected failures."""

import numpy as np
import pytest

from repro.acquisition.sampling import AdaptiveSampler
from repro.online.recognizer import RecognizerConfig, StreamRecognizer
from repro.online.vocabulary import MotionVocabulary
from repro.sensors.asl import ASL_VOCABULARY, synthesize_session, synthesize_sign
from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel
from repro.streams.multiplex import multiplex
from repro.streams.sample import Sample, frames_to_matrix


class TestSampledStreamRoundtrip:
    def test_samples_multiplex_back_to_frames(self):
        """adaptive sampling -> sample wire format -> multiplexer ->
        frames: the acquisition-to-online hand-off of Fig. 1."""
        sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
        session = sim.capture(5.0, np.random.default_rng(0))
        result = AdaptiveSampler().sample(session, sim.rate_hz)

        sensor_ids = list(range(1, 29))
        samples = (
            Sample(tick * (1.0 / sim.rate_hz), sid, float(session[tick, row]))
            for tick in range(session.shape[0])
            for row, sid in enumerate(sensor_ids)
            if result.kept[row, tick]
        )
        frames = list(multiplex(samples, sensor_ids, rate_hz=sim.rate_hz))
        assert frames  # stream survived the trip
        matrix = frames_to_matrix(frames)
        assert matrix.shape[1] == 28
        # Zero-order-hold reconstruction tracks the session loosely.
        n = min(matrix.shape[0], session.shape[0])
        err = np.sqrt(np.mean((matrix[:n] - session[:n]) ** 2))
        spread = session.max() - session.min()
        assert err / spread < 0.1


def _trained_recognizer(rng, window=50):
    signs = [ASL_VOCABULARY[i] for i in (5, 7, 9)]
    training = {
        s.name: [synthesize_sign(s, rng).frames for _ in range(4)]
        for s in signs
    }
    vocabulary = MotionVocabulary.from_instances(training)
    recognizer = StreamRecognizer(
        vocabulary,
        RecognizerConfig(window=window, compare_every=10,
                         declare_threshold=0.4, decline_steps=3),
    )
    return signs, recognizer


class TestFailureInjection:
    def test_recognizer_survives_frame_dropouts(self):
        """Randomly dropping 15% of frames (a lossy acquisition path)
        must not break recognition outright."""
        rng = np.random.default_rng(3)
        signs, recognizer = _trained_recognizer(rng)
        frames, segments = synthesize_session(signs, rng, gap_duration=0.8)
        keep = rng.random(frames.shape[0]) > 0.15
        keep[: segments[0].start] = True  # keep the calibration gap
        lossy = frames[keep]
        recognizer.calibrate_rest(frames[: segments[0].start])
        detections = recognizer.process(lossy)
        matches = sum(
            1 for d, s in zip(detections, segments) if d.name == s.name
        )
        assert matches >= len(segments) - 1

    def test_recognizer_survives_sensor_spikes(self):
        """Transient spikes (cable glitches) on top of the stream."""
        rng = np.random.default_rng(4)
        signs, recognizer = _trained_recognizer(rng)
        frames, segments = synthesize_session(signs, rng, gap_duration=0.8)
        spiky = NoiseModel(
            white_sigma=0.0, spike_prob=0.002, spike_scale=30.0
        ).apply(frames, rng)
        recognizer.calibrate_rest(spiky[: segments[0].start])
        detections = recognizer.process(spiky)
        matches = sum(
            1 for d, s in zip(detections, segments) if d.name == s.name
        )
        assert matches >= len(segments) - 1

    def test_recognizer_silent_on_pure_rest(self):
        """A stream with no signs at all must yield no detections."""
        rng = np.random.default_rng(5)
        signs, recognizer = _trained_recognizer(rng)
        frames, segments = synthesize_session(signs, rng)
        rest = frames[: segments[0].start]
        long_rest = np.tile(rest, (10, 1))
        recognizer.calibrate_rest(rest)
        assert recognizer.process(long_rest) == []

    def test_sampler_on_constant_session(self):
        """A dead sensor rig (all channels frozen) still samples sanely."""
        session = np.full((500, 4), 3.14)
        result = AdaptiveSampler().sample(session, 100.0)
        assert result.nrmse(session) == pytest.approx(0.0, abs=1e-12)
        assert result.samples_recorded < session.size / 2
