"""Sensor-dropout resilience: the live sampler and the GapFiller.

A flaky sensor (NaN readings) must never kill a live acquisition
session or leak NaNs into downstream math; gaps are repaired causally
(hold last good value), counted, and visible in the stats.
"""

import numpy as np

from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.streams.dropout import GapFiller
from repro.streams.sample import Frame
from repro.streams.source import ArraySource


def make_sampler(width=3, rate_hz=32.0):
    return StreamingAdaptiveSampler(
        width=width, rate_hz=rate_hz, window_seconds=1.0
    )


class TestSamplerDropouts:
    def test_nan_reading_does_not_raise_and_holds_last_value(self):
        sampler = make_sampler()
        sampler.push(np.array([1.0, 2.0, 3.0]))
        recorded = sampler.push(np.array([4.0, np.nan, 6.0]))
        # First window records every tick; the gap reads as the held 2.0.
        by_sensor = {s.sensor_id: s.value for s in recorded}
        assert by_sensor[1] == 2.0
        assert sampler.stats.dropouts == 1

    def test_cold_start_gap_reads_zero(self):
        sampler = make_sampler(width=2)
        recorded = sampler.push(np.array([np.nan, 5.0]))
        by_sensor = {s.sensor_id: s.value for s in recorded}
        assert by_sensor[0] == 0.0
        assert by_sensor[1] == 5.0

    def test_dropout_storm_survives_reestimation(self):
        # Enough ticks to close several estimation windows with NaNs
        # sprinkled in: the spectral estimator must only ever see finite
        # values, so nothing raises and the factors stay valid.
        rng = np.random.default_rng(3)
        sampler = make_sampler(width=4, rate_hz=32.0)
        t = np.arange(200) / 32.0
        for i in range(200):
            frame = np.sin(2 * np.pi * np.array([1, 2, 4, 6]) * t[i])
            gaps = rng.random(4) < 0.1
            frame[gaps] = np.nan
            sampler.push(frame)
        assert sampler.stats.ticks_seen == 200
        assert sampler.stats.dropouts > 0
        assert sampler.stats.rate_updates > 0

    def test_a_reused_frame_buffer_is_copied(self):
        # A producer may refill one buffer every tick: the sampler keeps
        # copies, so the windows, the factors and the running range are
        # those of fresh arrays, and a NaN is held at the last good value
        # (not "repaired" from the buffer it was written into).
        fresh, reused, buffer = make_sampler(1), make_sampler(1), np.empty(1)
        for i in range(96):
            buffer[0] = np.sin(2 * np.pi * 6 * i / 32.0)
            assert reused.push(buffer) == fresh.push(buffer.copy())
        assert reused._factors == fresh._factors == [1]
        assert (reused._lo[0], reused._hi[0]) == (fresh._lo[0], fresh._hi[0])
        assert fresh._hi[0] - fresh._lo[0] > 1.9  # the sine's whole swing
        buffer[0] = np.nan
        assert reused.push(buffer)[0].value == fresh._last_good[0]

    def test_clean_sessions_count_zero_dropouts(self):
        sampler = make_sampler()
        for i in range(50):
            sampler.push(np.array([float(i), 1.0, -1.0]))
        assert sampler.stats.dropouts == 0


class TestGapFiller:
    def frames(self, matrix):
        return [
            Frame.from_array(i / 10.0, row) for i, row in enumerate(matrix)
        ]

    def test_fills_gaps_causally(self):
        matrix = np.array([
            [1.0, 10.0],
            [np.nan, 20.0],
            [3.0, np.nan],
            [np.nan, np.nan],
        ])
        filler = GapFiller(self.frames(matrix))
        repaired = [f.as_array() for f in filler]
        assert np.array_equal(repaired[1], [1.0, 20.0])
        assert np.array_equal(repaired[2], [3.0, 20.0])
        assert np.array_equal(repaired[3], [3.0, 20.0])
        assert filler.gaps_filled == 4
        assert filler.frames_patched == 3

    def test_leading_gap_uses_fill_value(self):
        matrix = np.array([[np.nan, 2.0], [1.0, 2.0]])
        repaired = [
            f.as_array()
            for f in GapFiller(self.frames(matrix), fill_value=-7.0)
        ]
        assert np.array_equal(repaired[0], [-7.0, 2.0])

    def test_clean_stream_passes_through_untouched(self):
        matrix = np.arange(12, dtype=float).reshape(4, 3)
        frames = self.frames(matrix)
        filler = GapFiller(frames)
        assert [f.values for f in filler] == [f.values for f in frames]
        assert filler.gaps_filled == 0
        assert filler.frames_patched == 0

    def test_wraps_a_stream_source(self):
        matrix = np.ones((6, 2))
        matrix[2, 1] = np.nan
        out = list(GapFiller(ArraySource(matrix, rate_hz=10.0)))
        assert len(out) == 6
        assert all(np.isfinite(f.as_array()).all() for f in out)

    def test_output_timestamps_preserved(self):
        matrix = np.array([[np.nan], [1.0]])
        frames = self.frames(matrix)
        out = list(GapFiller(frames))
        assert [f.timestamp for f in out] == [f.timestamp for f in frames]
