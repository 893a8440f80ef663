"""The four immersidata sampling strategies of §3.1.

The paper: "we developed four alternative sampling techniques: Fixed,
Modified Fixed, Grouped and Adaptive Sampling.  The first two fix the
sampling rate at the largest common denominator across all sensors.
Grouped sampling strives to improve on this by clustering similar sensors
(in rates) and use a fix rate per cluster.  Finally, adaptive sampling
considers the immersive session information as well (within a sliding
window) and samples according to the level of activity within the session
window."

Every strategy consumes a full-rate reference session and produces a
:class:`SamplingResult`: which ticks of which sensors were recorded, the
bandwidth that recording costs, and a reconstruction of the full-rate
session for accuracy accounting.  Experiment E1 compares the strategies'
bandwidth at matched reconstruction quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import AcquisitionError
from repro.acquisition.nyquist import required_rates

__all__ = [
    "SamplingResult",
    "FixedSampler",
    "ModifiedFixedSampler",
    "GroupedSampler",
    "AdaptiveSampler",
]

# Bandwidth accounting: one recorded reading costs 4 bytes (float32); a
# rate-schedule change costs 4 bytes of metadata (sensor id + new rate).
SAMPLE_BYTES = 4
SCHEDULE_BYTES = 4


@dataclass
class SamplingResult:
    """Outcome of sampling one session.

    Attributes:
        kept: Per-sensor boolean masks over ticks: ``kept[s][t]`` is True
            when sensor ``s`` was recorded at tick ``t``.
        rate_hz: The device (reference) rate.
        schedule_changes: Number of rate-schedule updates the strategy
            issued (metadata overhead).
        strategy: Name of the producing strategy.
    """

    kept: np.ndarray  # (sensors, ticks) boolean
    rate_hz: float
    schedule_changes: int
    strategy: str

    @property
    def samples_recorded(self) -> int:
        """Total readings stored."""
        return int(self.kept.sum())

    @property
    def bytes_required(self) -> int:
        """Recorded bytes incl. schedule metadata — the E1 metric."""
        return (
            self.samples_recorded * SAMPLE_BYTES
            + self.schedule_changes * SCHEDULE_BYTES
        )

    def bandwidth_bps(self, duration: float) -> float:
        """Average bytes/second over the session."""
        if duration <= 0:
            raise AcquisitionError(f"duration must be positive, got {duration}")
        return self.bytes_required / duration

    def reconstruct(self, session: np.ndarray) -> np.ndarray:
        """Rebuild the full-rate session from the recorded readings by
        per-sensor linear interpolation (endpoints held)."""
        matrix = np.asarray(session, dtype=float)
        if matrix.T.shape != self.kept.shape:
            raise AcquisitionError(
                f"session shape {matrix.shape} does not match masks "
                f"{self.kept.shape}"
            )
        ticks = np.arange(matrix.shape[0])
        out = np.empty_like(matrix)
        for s in range(self.kept.shape[0]):
            kept_ticks = ticks[self.kept[s]]
            if kept_ticks.size == 0:
                raise AcquisitionError(f"sensor {s} recorded zero samples")
            out[:, s] = np.interp(ticks, kept_ticks, matrix[kept_ticks, s])
        return out

    def nrmse(self, session: np.ndarray) -> float:
        """Normalized RMS reconstruction error against the reference."""
        matrix = np.asarray(session, dtype=float)
        approx = self.reconstruct(matrix)
        spread = float(matrix.max() - matrix.min()) or 1.0
        return float(np.sqrt(np.mean((approx - matrix) ** 2))) / spread


def _decimation_mask(n_ticks: int, factor: int, offset: int = 0) -> np.ndarray:
    """Boolean mask keeping every ``factor``-th tick, always incl. the last
    (so interpolation never extrapolates across the session tail)."""
    mask = np.zeros(n_ticks, dtype=bool)
    mask[offset::factor] = True
    mask[0] = True
    mask[-1] = True
    return mask


def _factor_for(rate_hz: float, required: float) -> int:
    """Decimation factor implementing a required rate on a device clock."""
    return max(1, int(rate_hz // max(required, 1e-9)))


class FixedSampler:
    """One conservative rate for every sensor for the whole session.

    The rate is the *maximum* per-sensor required rate — the only single
    rate that loses nothing on the fastest sensor (the paper's "largest
    common denominator across all sensors").
    """

    name = "fixed"

    def __init__(self, method: str = "dft") -> None:
        self.method = method

    def sample(self, session: np.ndarray, rate_hz: float) -> SamplingResult:
        """Sample a full-rate ``(frames, sensors)`` session."""
        matrix = np.asarray(session, dtype=float)
        rates = required_rates(matrix, rate_hz, method=self.method)
        factor = _factor_for(rate_hz, float(rates.max()))
        n_sensors, n_ticks = matrix.shape[1], matrix.shape[0]
        kept = np.tile(_decimation_mask(n_ticks, factor), (n_sensors, 1))
        return SamplingResult(
            kept=kept, rate_hz=rate_hz, schedule_changes=1, strategy=self.name
        )


class ModifiedFixedSampler:
    """Fixed sampling, re-estimated per time block.

    Splits the session into blocks and recomputes the common (max) rate in
    each block, so quiet stretches of the whole rig are sampled slower.
    """

    name = "modified_fixed"

    def __init__(self, method: str = "mse", block_seconds: float = 2.0) -> None:
        if block_seconds <= 0:
            raise AcquisitionError("block length must be positive")
        self.method = method
        self.block_seconds = block_seconds

    def sample(self, session: np.ndarray, rate_hz: float) -> SamplingResult:
        """Sample a full-rate ``(frames, sensors)`` session."""
        matrix = np.asarray(session, dtype=float)
        n_ticks, n_sensors = matrix.shape
        block = max(16, int(self.block_seconds * rate_hz))
        # Session-wide spreads keep block-local error estimates comparable.
        scales = np.ptp(matrix, axis=0) if self.method == "mse" else None
        kept = np.zeros((n_sensors, n_ticks), dtype=bool)
        changes = 0
        for start in range(0, n_ticks, block):
            stop = min(n_ticks, start + block)
            if stop - start < 16:
                kept[:, start:stop] = True
                continue
            rates = required_rates(
                matrix[start:stop], rate_hz, method=self.method, scales=scales
            )
            factor = _factor_for(rate_hz, float(rates.max()))
            kept[:, start:stop] = _decimation_mask(stop - start, factor)
            changes += 1
        kept[:, 0] = True
        kept[:, -1] = True
        return SamplingResult(
            kept=kept, rate_hz=rate_hz, schedule_changes=changes,
            strategy=self.name,
        )


class GroupedSampler:
    """Cluster sensors by required rate; one fixed rate per cluster.

    Clustering is 1-D k-means-style on log-rates (initialized on rate
    quantiles), matching the paper's "clustering similar sensors (in
    rates)".
    """

    name = "grouped"

    def __init__(self, n_groups: int = 3, method: str = "dft") -> None:
        if n_groups < 1:
            raise AcquisitionError(f"need >= 1 group, got {n_groups}")
        self.n_groups = n_groups
        self.method = method

    def _cluster(self, rates: np.ndarray) -> np.ndarray:
        """Assign each sensor to a rate cluster; returns labels."""
        k = min(self.n_groups, np.unique(rates).size)
        log_rates = np.log(rates)
        centres = np.quantile(log_rates, np.linspace(0, 1, k))
        labels = np.zeros(rates.size, dtype=int)
        for _ in range(25):
            labels = np.argmin(
                np.abs(log_rates[:, None] - centres[None, :]), axis=1
            )
            new_centres = centres.copy()
            for j in range(k):
                members = log_rates[labels == j]
                if members.size:
                    new_centres[j] = members.mean()
            if np.allclose(new_centres, centres):
                break
            centres = new_centres
        return labels

    def sample(self, session: np.ndarray, rate_hz: float) -> SamplingResult:
        """Sample a full-rate ``(frames, sensors)`` session."""
        matrix = np.asarray(session, dtype=float)
        n_ticks, n_sensors = matrix.shape
        rates = required_rates(matrix, rate_hz, method=self.method)
        labels = self._cluster(rates)
        kept = np.zeros((n_sensors, n_ticks), dtype=bool)
        for j in np.unique(labels):
            members = np.nonzero(labels == j)[0]
            factor = _factor_for(rate_hz, float(rates[members].max()))
            kept[members] = _decimation_mask(n_ticks, factor)
        return SamplingResult(
            kept=kept, rate_hz=rate_hz,
            schedule_changes=int(np.unique(labels).size),
            strategy=self.name,
        )


class AdaptiveSampler:
    """Per-sensor, per-window rates tracking the session's activity level.

    For every sensor and every sliding-window block, the required rate is
    re-estimated from that block alone, so a sensor idles at the floor
    rate while its joint is still and speeds up during motion bursts.
    This is the strategy the paper found "requires far less bandwidth
    ... as compared to the other techniques".
    """

    name = "adaptive"

    def __init__(
        self, method: str = "mse", window_seconds: float = 1.0
    ) -> None:
        if window_seconds <= 0:
            raise AcquisitionError("window length must be positive")
        self.method = method
        self.window_seconds = window_seconds

    def sample(self, session: np.ndarray, rate_hz: float) -> SamplingResult:
        """Sample a full-rate ``(frames, sensors)`` session."""
        matrix = np.asarray(session, dtype=float)
        n_ticks, n_sensors = matrix.shape
        window = max(16, int(self.window_seconds * rate_hz))
        # Session-wide spreads make window-local error estimates
        # activity-sensitive: a quiet window tolerates heavy decimation.
        scales = np.ptp(matrix, axis=0) if self.method == "mse" else None
        kept = np.zeros((n_sensors, n_ticks), dtype=bool)
        changes = 0
        for start in range(0, n_ticks, window):
            stop = min(n_ticks, start + window)
            if stop - start < 16:
                kept[:, start:stop] = True
                continue
            rates = required_rates(
                matrix[start:stop], rate_hz, method=self.method, scales=scales
            )
            for s in range(n_sensors):
                factor = _factor_for(rate_hz, float(rates[s]))
                kept[s, start:stop] = _decimation_mask(stop - start, factor)
            changes += n_sensors
        kept[:, 0] = True
        kept[:, -1] = True
        return SamplingResult(
            kept=kept, rate_hz=rate_hz, schedule_changes=changes,
            strategy=self.name,
        )
