"""Causal (online) adaptive sampling.

The samplers in :mod:`repro.acquisition.sampling` look at a *recorded*
session, which is fine for studying strategies but not how §3.1's
acquisition subsystem runs: it must decide, live, which readings to record
"according to the level of activity within the session window" — using
only the past.

:class:`StreamingAdaptiveSampler` is that causal version.  The device
still produces every tick (sampling decides what to *record*, not what
the hardware senses); the sampler re-estimates each sensor's required
rate from the window that just closed and applies it to the next window.
The first window, with no history, records at the full device rate.

Sensor dropouts (NaN readings — a glove finger flaking out mid-session)
are absorbed, not raised: the sampler holds each sensor's last good
value, counts the gap in :attr:`StreamingStats.dropouts` and the
``faults.sensor_dropouts`` metric, and keeps the session running.  A
sensor that has never reported reads as ``0.0`` until its first good
tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import AcquisitionError
from repro.acquisition.nyquist import estimate_fmax_mse_rows, nyquist_rate
from repro.obs import counter as obs_counter
from repro.streams.sample import Sample

__all__ = ["StreamingAdaptiveSampler", "StreamingStats"]


@dataclass
class StreamingStats:
    """Running accounting of a causal sampling session."""

    ticks_seen: int = 0
    samples_recorded: int = 0
    rate_updates: int = 0
    dropouts: int = 0


@dataclass
class StreamingAdaptiveSampler:
    """Online per-sensor adaptive sampler.

    Args:
        width: Sensor count per frame.
        rate_hz: Device tick rate.
        window_seconds: Re-estimation period.
        tolerance: MSE-estimator NRMSE tolerance.
        min_rate_hz: Slowest rate any sensor is recorded at.
        sensor_ids: Ids used in emitted samples (default 0..width-1).
    """

    width: int
    rate_hz: float
    window_seconds: float = 1.0
    tolerance: float = 0.05
    min_rate_hz: float = 1.0
    sensor_ids: list[int] | None = None
    stats: StreamingStats = field(default_factory=StreamingStats)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise AcquisitionError(f"width must be >= 1, got {self.width}")
        if self.rate_hz <= 0 or self.window_seconds <= 0:
            raise AcquisitionError("rate and window must be positive")
        if self.sensor_ids is None:
            self.sensor_ids = list(range(self.width))
        if len(self.sensor_ids) != self.width:
            raise AcquisitionError(
                f"{len(self.sensor_ids)} sensor ids for width {self.width}"
            )
        self._window_ticks = max(16, int(self.window_seconds * self.rate_hz))
        self._buffer: list[np.ndarray] = []
        # Current per-sensor decimation factors, as Python ints (the
        # per-tick record loop reads them); 1 = record everything (the
        # cold-start policy for the first window).
        self._factors = [1] * self.width
        # Running per-sensor amplitude spread (activity scale).
        self._lo = np.full(self.width, np.inf)
        self._hi = np.full(self.width, -np.inf)
        # Dropout repair state: last good reading per sensor (0.0 until
        # a sensor has reported at least once).
        self._last_good = np.zeros(self.width)
        self._tick = 0
        # External recording-rate ceiling (Hz), imposed by a bandwidth
        # coordinator under ingest back-pressure; None = uncapped.
        self._max_rate_hz: float | None = None

    def _repair(self, frame: np.ndarray) -> np.ndarray:
        """Replace NaN readings with each sensor's last good value.

        Counts every repaired reading in :attr:`StreamingStats.dropouts`
        and the ``faults.sensor_dropouts`` counter; never raises.
        """
        gaps = ~np.isfinite(frame)
        n = int(gaps.sum())
        self.stats.dropouts += n
        obs_counter("faults.sensor_dropouts").inc(n)
        return np.where(gaps, self._last_good, frame)

    def set_max_rate_hz(self, cap: float | None) -> None:
        """Impose (or lift) an external per-sensor recording-rate ceiling.

        The hook a :class:`~repro.streams.ingest.BandwidthCoordinator`
        pulls under sustained ingest back-pressure: capping the
        recording rate *degrades* fidelity instead of dropping samples
        on the floor.  The cap is clamped to ``[min_rate_hz, rate_hz]``
        (degrade, never silence a sensor) and applied to the current
        decimation factors immediately — relief must not wait for the
        next re-estimation window.  ``None`` lifts the cap; activity-
        driven rates return at the next window close.

        Args:
            cap: Maximum recording rate in Hz, or ``None`` to uncap.
        """
        if cap is not None:
            if cap <= 0:
                raise AcquisitionError(
                    f"rate cap must be positive, got {cap}"
                )
            cap = min(max(float(cap), self.min_rate_hz), self.rate_hz)
            floor = max(1, int(self.rate_hz // cap))
            self._factors = [max(factor, floor) for factor in self._factors]
        self._max_rate_hz = cap

    @property
    def max_rate_hz(self) -> float | None:
        """The currently imposed rate ceiling (``None`` = uncapped).

        Session recorders poll this per push, so every coordinator
        degradation/restoration lands in the session record as a
        ``rate_change`` event.
        """
        return self._max_rate_hz

    def _reestimate(self) -> None:
        """Close the current window: derive next-window rates from it.

        Every sensor's estimate comes from one array pass over the
        ``(sensors, ticks)`` window
        (:func:`~repro.acquisition.nyquist.estimate_fmax_mse_rows`, each
        row bitwise its own
        :func:`~repro.acquisition.nyquist.estimate_fmax_mse`).
        """
        window = np.array(self._buffer).T.copy()
        self._buffer.clear()
        self._lo = np.minimum(self._lo, window.min(axis=1))
        self._hi = np.maximum(self._hi, window.max(axis=1))
        f_maxes = estimate_fmax_mse_rows(
            window, self.rate_hz, self.tolerance, self._hi - self._lo
        )
        factors = []
        for f_max in f_maxes:
            required = max(self.min_rate_hz, nyquist_rate(f_max))
            if self._max_rate_hz is not None:
                required = max(
                    self.min_rate_hz, min(required, self._max_rate_hz)
                )
            factors.append(max(1, int(self.rate_hz // required)))
        self._factors = factors
        self.stats.rate_updates += self.width

    def push(self, values: np.ndarray) -> list[Sample]:
        """Feed one device tick; returns the readings recorded for it.

        NaN readings are repaired (hold-last-value) rather than raised:
        a flaky sensor must not kill a live acquisition session.  The
        frame is copied once: the window and the last good readings
        must not alias a buffer the caller refills every tick.
        """
        frame = np.array(values, dtype=float)
        if frame.shape != (self.width,):
            raise AcquisitionError(
                f"frame shape {frame.shape} != ({self.width},)"
            )
        readings = frame.tolist()
        if not all(map(math.isfinite, readings)):
            frame = self._repair(frame)
            readings = frame.tolist()
        self._last_good = frame
        tick = self._tick
        timestamp = tick / self.rate_hz
        recorded = [
            Sample(timestamp, sensor_id, value)
            for sensor_id, value, factor in zip(
                self.sensor_ids, readings, self._factors
            )
            if tick % factor == 0
        ]
        self._tick = tick + 1
        self.stats.ticks_seen += 1
        self.stats.samples_recorded += len(recorded)
        self._buffer.append(frame)
        if len(self._buffer) >= self._window_ticks:
            self._reestimate()
        return recorded

    def process(self, frames) -> list[Sample]:
        """Run a whole frame iterable through the sampler."""
        out: list[Sample] = []
        for frame in frames:
            values = (
                frame.as_array() if hasattr(frame, "as_array") else frame
            )
            out.extend(self.push(values))
        return out
