"""The streaming sampler's window close, held to the per-sensor reference.

:class:`~repro.acquisition.streaming.StreamingAdaptiveSampler` closes a
window with one array pass over all its sensors
(:func:`~repro.acquisition.nyquist.estimate_fmax_mse_rows`).  These tests
hold it to :func:`~repro.acquisition.nyquist.estimate_fmax_mse` run
sensor by sensor: the same ``f_max`` bits, the same decimation factors,
the same recorded samples.  The equality rests on a row reduction of a
C-ordered window summing each row as numpy's 1-D ``mean`` does, so the
file also runs under the kernels of CI's pinned-bits loop.
"""

import hashlib
import importlib.util
import struct
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acquisition.nyquist import (
    estimate_fmax_mse,
    estimate_fmax_mse_rows,
    level_mses,
    nyquist_rate,
)
from repro.acquisition.streaming import StreamingAdaptiveSampler

ROOT = Path(__file__).resolve().parents[1]

#: sha256 of every sample the e2e benchmark's 16 sampler sessions record
#: from its tick pool (``workloads.tick_vectors(seed, 16, 1024)``), as
#: the per-sensor window close recorded them.
POOL_DIGESTS = {
    2003: "ed2f8806d17d0a11118440f1fbbc127def76ee7ab01bc16e0918615c4b6e638f",
    7: "ec15bbd8a9b3d5d809797f6855b9992b69664f6b9550e8ff67649794faca741b",
}


class PerSensorSampler(StreamingAdaptiveSampler):
    """The window close as one ``estimate_fmax_mse`` call per sensor."""

    def _reestimate(self) -> None:
        window = np.array(self._buffer)
        self._buffer.clear()
        self._lo = np.minimum(self._lo, window.min(axis=0))
        self._hi = np.maximum(self._hi, window.max(axis=0))
        scales = self._hi - self._lo
        factors = list(self._factors)
        for s in range(self.width):
            scale = float(scales[s]) if scales[s] > 0 else None
            f_max = estimate_fmax_mse(
                window[:, s], self.rate_hz,
                tolerance=self.tolerance, scale=scale,
            )
            required = max(self.min_rate_hz, nyquist_rate(f_max))
            if self._max_rate_hz is not None:
                required = max(
                    self.min_rate_hz, min(required, self._max_rate_hz)
                )
            factors[s] = max(1, int(self.rate_hz // required))
        self._factors = factors
        self.stats.rate_updates += self.width


def _signals(rng, width: int, ticks: int, rate_hz: float) -> np.ndarray:
    """``(ticks, width)`` readings: per sensor a constant, a sine at a
    random frequency and amplitude with a little noise, a random walk or
    white noise, each at its own offset."""
    t = np.arange(ticks) / rate_hz
    out = np.empty((ticks, width))
    for s in range(width):
        kind = rng.integers(4)
        offset = rng.uniform(-50.0, 50.0)
        if kind == 0:
            out[:, s] = offset
        elif kind == 1:
            freq = rng.uniform(0.05, rate_hz / 2)
            amp = 10.0 ** rng.uniform(-3, 2)
            out[:, s] = offset + amp * np.sin(
                2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi)
            ) + rng.normal(0.0, amp * rng.choice([0.0, 0.01, 0.1]), ticks)
        elif kind == 2:
            out[:, s] = offset + np.cumsum(rng.normal(0.0, 0.3, ticks))
        else:
            out[:, s] = offset + rng.normal(0.0, 1.0, ticks)
    return out


class TestRowsAreTheReference:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 28),
        n=st.integers(16, 64),
    )
    def test_level_errors_are_numpys_interp_and_mean(self, seed, width, n):
        rows = _signals(np.random.default_rng(seed), width, n, 100.0).T.copy()
        t = np.arange(n)
        levels = [2**e for e in range(1, n.bit_length()) if 2**e <= n // 2]
        want = [
            [
                np.mean((np.interp(t, t[::k], row[::k]) - row) ** 2).hex()
                for k in levels
            ]
            for row in rows
        ]
        got = level_mses(rows)
        assert got.shape == (width, len(levels))
        assert [[x.hex() for x in row] for row in got.tolist()] == want

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 28),
        n=st.integers(16, 64),
        tolerance=st.sampled_from([0.01, 0.05, 0.2, 0.5]),
        spread=st.sampled_from([0.0, 1.0, 1.5, 8.0]),
    )
    def test_f_max_bits_equal_the_per_row_estimator(
        self, seed, width, n, tolerance, spread
    ):
        rng = np.random.default_rng(seed)
        rows = _signals(rng, width, n, 100.0).T.copy()
        # The sampler's scales: at least the window's own spread (a
        # session-wide spread), 0 exactly for a constant row.
        own = rows.max(axis=1) - rows.min(axis=1)
        scales = own * (1.0 + spread) + np.where(own > 0, spread, 0.0)
        got = estimate_fmax_mse_rows(rows, 100.0, tolerance, scales)
        want = [
            estimate_fmax_mse(
                rows[s], 100.0, tolerance=tolerance,
                scale=float(scales[s]) if scales[s] > 0 else None,
            )
            for s in range(width)
        ]
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestSamplerIsTheReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 28),
        window=st.integers(16, 64),
        rate_hz=st.sampled_from([20.0, 64.0, 100.0, 133.0]),
        min_rate_hz=st.sampled_from([0.5, 1.0, 4.0, 16.0]),
        windows=st.integers(2, 5),
        dropout=st.sampled_from([0.0, 0.05]),
        caps=st.lists(
            st.tuples(st.integers(0, 319),
                      st.one_of(st.none(), st.floats(0.5, 200.0))),
            max_size=4,
        ),
    )
    def test_samples_and_factors_equal_the_per_sensor_close(
        self, seed, width, window, rate_hz, min_rate_hz, windows, dropout,
        caps,
    ):
        kwargs = dict(
            width=width, rate_hz=rate_hz, window_seconds=window / rate_hz,
            min_rate_hz=min_rate_hz,
        )
        fast = StreamingAdaptiveSampler(**kwargs)
        slow = PerSensorSampler(**kwargs)
        assert 16 <= fast._window_ticks <= 64
        ticks = windows * fast._window_ticks
        rng = np.random.default_rng(seed)
        frames = _signals(rng, width, ticks, rate_hz)
        frames[rng.random(frames.shape) < dropout] = np.nan
        schedule = dict(caps)
        for tick, frame in enumerate(frames):
            if tick in schedule:
                fast.set_max_rate_hz(schedule[tick])
                slow.set_max_rate_hz(schedule[tick])
            assert fast.push(frame) == slow.push(frame)
            assert fast._factors == slow._factors
        assert fast.stats == slow.stats


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pool_digest(gen, seed: int) -> str:
    """sha256 of ``(timestamp, sensor id, value)`` of every sample the
    benchmark's sessions record from the seed's tick pool."""
    sessions, ticks = 16, 1024
    pool = gen.tick_vectors(seed, sessions, ticks)
    digest = hashlib.sha256()
    for s in range(sessions):
        width = gen.SENSOR_WIDTH
        sampler = StreamingAdaptiveSampler(
            width=width, rate_hz=gen.TICK_RATE_HZ,
            window_seconds=gen.SAMPLER_WINDOW_S,
            sensor_ids=list(range(s * width, (s + 1) * width)),
        )
        for t in range(ticks):
            for sample in sampler.push(pool[t, s]):
                digest.update(struct.pack(
                    "<dqd", sample.timestamp, sample.sensor_id, sample.value
                ))
    return digest.hexdigest()


class TestBenchmarkPools:
    def test_tick_pools_record_the_reference_samples(self):
        gen = _workloads()
        assert {seed: pool_digest(gen, seed) for seed in POOL_DIGESTS} == (
            POOL_DIGESTS
        )


if __name__ == "__main__":
    workloads = _workloads()
    for pool_seed in POOL_DIGESTS:
        print(pool_seed, pool_digest(workloads, pool_seed))
