"""Tests for the sensor simulators: glove, ASL, classroom, atmosphere."""

import numpy as np
import pytest

from repro.core.errors import AcquisitionError, RecognitionError, SchemaError, StreamError
from repro.sensors.asl import (
    ASL_VOCABULARY,
    NEUTRAL_SHAPE,
    SignSpec,
    hand_shape,
    synthesize_session,
    synthesize_sign,
)
from repro.sensors.atmosphere import (
    atmospheric_cube,
    dataset_suite,
    random_cube,
    spiky_cube,
)
from repro.sensors.classroom import (
    generate_cohort,
    make_profile,
    simulate_session,
)
from repro.sensors.glove import CyberGloveSimulator, band_limited_signal
from repro.sensors.noise import NoiseModel


class TestBandLimitedSignal:
    def test_spectrum_respects_band_limit(self):
        rng = np.random.default_rng(0)
        rate, f_max = 100.0, 5.0
        signal = band_limited_signal(20.0, rate, f_max, rng)
        spectrum = np.abs(np.fft.rfft(signal)) ** 2
        freqs = np.fft.rfftfreq(signal.size, 1.0 / rate)
        in_band = spectrum[freqs <= f_max].sum()
        # Finite-window spectral leakage keeps this just under 1.
        assert in_band / spectrum.sum() > 0.99

    def test_undersampled_generation_rejected(self):
        with pytest.raises(AcquisitionError):
            band_limited_signal(1.0, 8.0, 5.0, np.random.default_rng(0))

    def test_activity_envelope(self):
        rng = np.random.default_rng(1)
        n = 1000
        envelope = np.zeros(n)
        envelope[500:] = 1.0
        signal = band_limited_signal(10.0, 100.0, 3.0, rng, activity=envelope)
        assert np.all(signal[:500] == 0.0)
        assert np.any(signal[500:] != 0.0)

    def test_bad_envelope_shape(self):
        with pytest.raises(AcquisitionError):
            band_limited_signal(
                1.0, 100.0, 3.0, np.random.default_rng(0), activity=np.ones(5)
            )


class TestGloveSimulator:
    def test_capture_shape(self):
        sim = CyberGloveSimulator()
        session = sim.capture(2.0, np.random.default_rng(0))
        assert session.shape == (200, 28)

    def test_values_roughly_in_physical_span(self):
        sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
        session = sim.capture(2.0, np.random.default_rng(0))
        for col, spec in enumerate(sim.sensors):
            assert session[:, col].min() >= spec.lo - 1.0
            assert session[:, col].max() <= spec.hi + 1.0

    def test_duration_validation(self):
        with pytest.raises(AcquisitionError):
            CyberGloveSimulator().capture(0.0, np.random.default_rng(0))

    def test_determinism(self):
        sim = CyberGloveSimulator()
        a = sim.capture(1.0, np.random.default_rng(9))
        b = sim.capture(1.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestHandShapes:
    def test_deterministic(self):
        np.testing.assert_array_equal(hand_shape("A"), hand_shape("A"))

    def test_distinct_letters_differ(self):
        shapes = {letter: hand_shape(letter) for letter in "ABCDEGYR"}
        letters = list(shapes)
        for i, a in enumerate(letters):
            for b in letters[i + 1 :]:
                dist = np.linalg.norm(shapes[a] - shapes[b])
                assert dist > 10.0, f"shapes {a} and {b} too close"

    def test_shape_dimension(self):
        assert hand_shape("Q").shape == (22,)
        assert NEUTRAL_SHAPE.shape == (22,)

    def test_empty_name_rejected(self):
        with pytest.raises(RecognitionError):
            hand_shape("")


class TestSignSynthesis:
    def test_vocabulary_size(self):
        assert len(ASL_VOCABULARY) == 10
        assert len({s.name for s in ASL_VOCABULARY}) == 10

    def test_instance_shape(self):
        rng = np.random.default_rng(0)
        inst = synthesize_sign(ASL_VOCABULARY[0], rng)
        assert inst.frames.shape[1] == 28
        assert inst.frames.shape[0] > 50

    def test_time_warp_varies_length(self):
        rng = np.random.default_rng(0)
        lengths = {
            synthesize_sign(ASL_VOCABULARY[5], rng).frames.shape[0]
            for _ in range(8)
        }
        assert len(lengths) > 1

    def test_static_sign_has_quiet_tracker(self):
        rng = np.random.default_rng(0)
        quiet = synthesize_sign(
            ASL_VOCABULARY[0], rng, noise=NoiseModel(white_sigma=0.0)
        )
        moving = synthesize_sign(
            ASL_VOCABULARY[5], rng, noise=NoiseModel(white_sigma=0.0)
        )
        assert np.std(quiet.frames[:, 22:]) < np.std(moving.frames[:, 22:])

    def test_same_sign_shares_posture(self):
        """Two instances of a sign reach (roughly) the same hand shape."""
        rng = np.random.default_rng(3)
        a = synthesize_sign(ASL_VOCABULARY[1], rng, noise=NoiseModel(white_sigma=0.0))
        b = synthesize_sign(ASL_VOCABULARY[1], rng, noise=NoiseModel(white_sigma=0.0))
        mid_a = a.frames[a.frames.shape[0] // 2, :22]
        mid_b = b.frames[b.frames.shape[0] // 2, :22]
        assert np.linalg.norm(mid_a - mid_b) < 15.0

    def test_invalid_trajectory(self):
        with pytest.raises(RecognitionError):
            SignSpec("BAD", "A", "teleport")

    def test_invalid_rate(self):
        with pytest.raises(RecognitionError):
            synthesize_sign(ASL_VOCABULARY[0], np.random.default_rng(0), rate_hz=0)


class TestSessionSynthesis:
    def test_segments_cover_signs_in_order(self):
        rng = np.random.default_rng(0)
        sequence = [ASL_VOCABULARY[i] for i in (0, 5, 7)]
        frames, segments = synthesize_session(sequence, rng)
        assert [s.name for s in segments] == ["A", "GREEN", "RED"]
        assert segments[0].start > 0  # leading gap
        for earlier, later in zip(segments, segments[1:]):
            assert earlier.end < later.start  # gap between signs
        assert segments[-1].end < frames.shape[0]  # trailing gap

    def test_empty_sequence_rejected(self):
        with pytest.raises(RecognitionError):
            synthesize_session([], np.random.default_rng(0))

    def test_frame_width(self):
        frames, _ = synthesize_session(
            [ASL_VOCABULARY[0]], np.random.default_rng(0)
        )
        assert frames.shape[1] == 28


class TestClassroom:
    def test_profile_groups(self):
        rng = np.random.default_rng(0)
        normals = [make_profile(i, "normal", rng) for i in range(40)]
        adhds = [make_profile(i, "adhd", rng) for i in range(40)]
        mean_n = np.mean([p.movement_intensity for p in normals])
        mean_a = np.mean([p.movement_intensity for p in adhds])
        assert mean_a > mean_n

    def test_unknown_group(self):
        with pytest.raises(StreamError):
            make_profile(0, "robot", np.random.default_rng(0))

    def test_session_structure(self):
        rng = np.random.default_rng(1)
        profile = make_profile(0, "adhd", rng)
        session = simulate_session(profile, rng, duration=30.0)
        assert set(session.trackers) == {
            "head", "left_hand", "right_hand", "left_leg", "right_leg",
        }
        for matrix in session.trackers.values():
            assert matrix.shape == (1800, 6)
        assert session.duration == pytest.approx(30.0)
        assert len(session.stimuli) > 5
        assert len(session.distractions) >= 1

    def test_target_bookkeeping(self):
        rng = np.random.default_rng(2)
        profile = make_profile(0, "normal", rng)
        session = simulate_session(profile, rng, duration=100.0)
        targets = [e for e in session.stimuli if e.is_target]
        assert all(e.letter == "X" for e in targets)
        assert session.hits() + session.misses() == len(targets)
        assert session.mean_reaction_time() > 0.1

    def test_adhd_moves_more(self):
        rng = np.random.default_rng(3)
        cohort = generate_cohort(8, rng, duration=20.0, separation=1.5)
        speeds = {"normal": [], "adhd": []}
        for session in cohort:
            motion = np.concatenate(
                [np.diff(m, axis=0).ravel() for m in session.trackers.values()]
            )
            speeds[session.profile.group].append(float(np.mean(np.abs(motion))))
        assert np.mean(speeds["adhd"]) > np.mean(speeds["normal"])

    def test_cohort_balance(self):
        cohort = generate_cohort(3, np.random.default_rng(0), duration=5.0)
        groups = [s.profile.group for s in cohort]
        assert groups.count("normal") == groups.count("adhd") == 3

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(StreamError):
            generate_cohort(0, rng)
        with pytest.raises(StreamError):
            simulate_session(make_profile(0, "normal", rng), rng, duration=0.0)


class TestAtmosphere:
    def test_cube_shapes(self):
        assert atmospheric_cube((16, 16)).shape == (16, 16)
        assert atmospheric_cube((8, 16, 4)).shape == (8, 16, 4)

    def test_latitudinal_gradient(self):
        cube = atmospheric_cube((32, 32), noise_sigma=0.0)
        equator = cube[16, :].mean()
        pole = cube[0, :].mean()
        assert equator > pole + 10.0

    def test_smoothness(self):
        """Adjacent-cell differences are small relative to global spread —
        the compressibility ProPolyne's E4 benchmark exploits."""
        cube = atmospheric_cube((32, 32), noise_sigma=0.0)
        local = np.abs(np.diff(cube, axis=0)).mean()
        spread = cube.max() - cube.min()
        assert local < spread / 10.0

    def test_bad_shape(self):
        with pytest.raises(SchemaError):
            atmospheric_cube((8,))

    def test_spiky_cube_is_sparse(self):
        cube = spiky_cube((64, 64), spike_fraction=0.01)
        assert np.mean(np.abs(cube) > 5.0) < 0.05
        assert cube.max() > 20.0

    def test_spike_fraction_validated(self):
        with pytest.raises(SchemaError):
            spiky_cube((8, 8), spike_fraction=0.0)

    def test_random_cube_white(self):
        cube = random_cube((64, 64))
        assert abs(np.mean(cube)) < 0.1
        assert np.std(cube) == pytest.approx(1.0, rel=0.1)

    def test_dataset_suite(self):
        suite = dataset_suite((32, 32))
        assert set(suite) == {"atmospheric", "spiky", "random"}
        assert all(c.shape == (32, 32) for c in suite.values())

    def test_determinism(self):
        a = dataset_suite((16, 16), seed=3)
        b = dataset_suite((16, 16), seed=3)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
