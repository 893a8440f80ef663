"""Tests for the continuous-data-stream substrate (repro.streams)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StreamError
from repro.streams import (
    ArraySource,
    CallbackSource,
    DoubleBuffer,
    Frame,
    Sample,
    SlidingWindow,
    concat_sources,
    demultiplex,
    frames_to_matrix,
    multiplex,
    sliding_windows,
    tumbling_windows,
)


RNG = np.random.default_rng(5)


class TestSampleAndFrame:
    def test_sample_validation(self):
        with pytest.raises(StreamError):
            Sample(timestamp=-1.0, sensor_id=1, value=0.0)
        with pytest.raises(StreamError):
            Sample(timestamp=0.0, sensor_id=-1, value=0.0)

    def test_frame_from_array(self):
        frame = Frame.from_array(1.5, np.array([1.0, 2.0, 3.0]))
        assert frame.width == 3
        np.testing.assert_allclose(frame.as_array(), [1.0, 2.0, 3.0])

    def test_frame_rejects_matrix(self):
        with pytest.raises(StreamError):
            Frame.from_array(0.0, np.ones((2, 2)))

    def test_frames_to_matrix(self):
        frames = [Frame.from_array(i * 0.1, np.full(4, i)) for i in range(5)]
        matrix = frames_to_matrix(frames)
        assert matrix.shape == (5, 4)
        np.testing.assert_allclose(matrix[3], np.full(4, 3.0))

    def test_frames_to_matrix_empty(self):
        with pytest.raises(StreamError):
            frames_to_matrix([])

    def test_frames_to_matrix_ragged(self):
        frames = [
            Frame.from_array(0.0, np.zeros(3)),
            Frame.from_array(0.1, np.zeros(4)),
        ]
        with pytest.raises(StreamError):
            frames_to_matrix(frames)


class TestSources:
    def test_array_source_timestamps(self):
        src = ArraySource(RNG.normal(size=(10, 3)), rate_hz=100.0)
        frames = list(src)
        assert len(frames) == 10
        assert frames[3].timestamp == pytest.approx(0.03)

    def test_array_source_single_pass(self):
        src = ArraySource(np.zeros((5, 2)), rate_hz=10.0)
        list(src)
        with pytest.raises(StreamError):
            list(src)

    def test_array_source_1d_promotion(self):
        src = ArraySource(np.arange(4.0), rate_hz=1.0)
        assert src.width == 1

    def test_callback_source(self):
        src = CallbackSource(
            lambda i: np.array([float(i)]) if i < 3 else None,
            width=1,
            rate_hz=10.0,
        )
        values = [f.values[0] for f in src]
        assert values == [0.0, 1.0, 2.0]

    def test_callback_source_bad_shape(self):
        src = CallbackSource(lambda i: np.zeros(2), width=3, rate_hz=10.0)
        with pytest.raises(StreamError):
            list(src)

    def test_concat_sources_monotone_time(self):
        a = ArraySource(np.zeros((4, 2)), rate_hz=10.0)
        b = ArraySource(np.ones((4, 2)), rate_hz=10.0)
        frames = list(concat_sources([a, b]))
        times = [f.timestamp for f in frames]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_concat_width_mismatch(self):
        a = ArraySource(np.zeros((2, 2)), rate_hz=10.0)
        b = ArraySource(np.zeros((2, 3)), rate_hz=10.0)
        with pytest.raises(StreamError):
            list(concat_sources([a, b]))

    def test_invalid_rate(self):
        with pytest.raises(StreamError):
            ArraySource(np.zeros((2, 2)), rate_hz=0.0)


class TestWindows:
    def test_sliding_window_eviction(self):
        window = SlidingWindow(capacity=3)
        for i in range(5):
            window.push(Frame.from_array(i * 0.1, np.array([float(i)])))
        assert len(window) == 3
        np.testing.assert_allclose(window.matrix().ravel(), [2.0, 3.0, 4.0])

    def test_sliding_window_span(self):
        window = SlidingWindow(capacity=4)
        assert window.span == 0.0
        for i in range(4):
            window.push(Frame.from_array(i * 0.5, np.array([0.0])))
        assert window.span == pytest.approx(1.5)

    def test_sliding_window_clear(self):
        window = SlidingWindow(capacity=2)
        window.push(Frame.from_array(0.0, np.array([1.0])))
        window.clear()
        assert len(window) == 0

    def test_invalid_capacity(self):
        with pytest.raises(StreamError):
            SlidingWindow(capacity=0)

    def test_sliding_windows_iterator(self):
        frames = [Frame.from_array(i * 0.1, np.array([float(i)])) for i in range(6)]
        wins = list(sliding_windows(frames, size=3, step=2))
        firsts = [w[0].values[0] for w in wins]
        assert firsts == [0.0, 2.0]  # windows at frames 0-2 and 2-4

    def test_sliding_windows_step_one(self):
        frames = [Frame.from_array(i * 0.1, np.array([float(i)])) for i in range(5)]
        wins = list(sliding_windows(frames, size=2, step=1))
        assert len(wins) == 4

    def test_tumbling_windows(self):
        frames = [Frame.from_array(i * 0.1, np.array([float(i)])) for i in range(7)]
        wins = list(tumbling_windows(frames, size=3))
        assert [len(w) for w in wins] == [3, 3, 1]
        wins = list(tumbling_windows(iter(frames), size=3, drop_last=True))
        assert [len(w) for w in wins] == [3, 3]

    def test_window_validation(self):
        with pytest.raises(StreamError):
            list(sliding_windows([], size=0))
        with pytest.raises(StreamError):
            list(tumbling_windows([], size=-1))


class TestMultiplex:
    def test_zero_order_hold(self):
        samples = [
            Sample(0.00, 1, 10.0),
            Sample(0.00, 2, 20.0),
            Sample(0.10, 1, 11.0),
            Sample(0.20, 1, 12.0),
            Sample(0.20, 2, 22.0),
        ]
        frames = list(multiplex(samples, [1, 2], rate_hz=10.0))
        assert len(frames) == 3
        np.testing.assert_allclose(frames[0].values, [10.0, 20.0])
        np.testing.assert_allclose(frames[1].values, [11.0, 20.0])  # held
        np.testing.assert_allclose(frames[2].values, [12.0, 22.0])

    def test_out_of_order_rejected(self):
        samples = [Sample(1.0, 1, 0.0), Sample(0.5, 1, 0.0)]
        with pytest.raises(StreamError):
            list(multiplex(samples, [1], rate_hz=10.0))

    def test_unknown_sensors_skipped(self):
        samples = [Sample(0.0, 1, 5.0), Sample(0.0, 9, 99.0)]
        frames = list(multiplex(samples, [1], rate_hz=10.0))
        assert frames[0].values == (5.0,)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(StreamError):
            list(multiplex([], [1, 1], rate_hz=10.0))

    def test_demultiplex_roundtrip(self):
        frames = [Frame.from_array(i * 0.1, np.array([i, -i], float)) for i in range(3)]
        samples = list(demultiplex(frames, [7, 8]))
        assert len(samples) == 6
        assert samples[0].sensor_id == 7
        assert samples[1] == Sample(0.0, 8, -0.0)

    def test_demultiplex_width_mismatch(self):
        frames = [Frame.from_array(0.0, np.zeros(3))]
        with pytest.raises(StreamError):
            list(demultiplex(frames, [1, 2]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_multiplex_preserves_final_values(self, seed):
        rng = np.random.default_rng(seed)
        samples = sorted(
            (
                Sample(float(ts), int(sid), float(rng.normal()))
                for ts, sid in zip(
                    rng.uniform(0, 1, size=20), rng.integers(1, 4, size=20)
                )
            ),
            key=lambda s: s.timestamp,
        )
        frames = list(multiplex(samples, [1, 2, 3], rate_hz=50.0))
        if not frames:
            return
        last = {}
        final_tick = int(np.floor(samples[-1].timestamp / 0.02))
        for s in samples:
            if int(np.floor(s.timestamp / 0.02)) <= final_tick:
                last[s.sensor_id] = s.value
        for col, sid in enumerate([1, 2, 3]):
            if sid in last:
                assert frames[-1].values[col] == pytest.approx(last[sid])


class TestDoubleBuffer:
    def _frames(self, n):
        return [Frame.from_array(i * 0.01, np.array([float(i)])) for i in range(n)]

    def test_fast_drain_loses_nothing(self):
        buf = DoubleBuffer(capacity=8, drain_rate=2.0)
        stats = buf.record(self._frames(100))
        assert stats.dropped == 0
        assert stats.stored == 100
        assert len(buf.stored_frames) == 100

    def test_slow_drain_drops_frames(self):
        buf = DoubleBuffer(capacity=4, drain_rate=0.3)
        stats = buf.record(self._frames(200))
        assert stats.dropped > 0
        assert stats.stored + stats.dropped == stats.produced == 200

    def test_preserves_order(self):
        buf = DoubleBuffer(capacity=8, drain_rate=1.5)
        buf.record(self._frames(50))
        values = [f.values[0] for f in buf.stored_frames]
        assert values == sorted(values)

    def test_loss_rate(self):
        stats = DoubleBuffer(capacity=4, drain_rate=10.0).record(self._frames(40))
        assert stats.dropped == 0

    def test_validation(self):
        with pytest.raises(StreamError):
            DoubleBuffer(capacity=0)
        with pytest.raises(StreamError):
            DoubleBuffer(capacity=4, drain_rate=0.0)
