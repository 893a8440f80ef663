"""CyberGlove + Polhemus simulator.

Substitutes for the physical glove of §2.2: generates per-sensor
band-limited signals whose frequency content matches each
:class:`~repro.sensors.model.SensorSpec`'s ``max_frequency_hz``.  That
band-limitedness is the property the Nyquist-based acquisition experiments
(§3.1) rely on — a sensor whose content tops out at ``f`` needs only
``2 f`` samples per second, so the heterogeneous per-sensor frequencies
here are what make Grouped and Adaptive sampling win experiment E1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import AcquisitionError
from repro.sensors.model import GLOVE_RATE_HZ, HAND_RIG_SENSORS, SensorSpec
from repro.sensors.noise import NoiseModel

__all__ = ["CyberGloveSimulator", "band_limited_signal"]


def band_limited_signal(
    duration: float,
    rate_hz: float,
    f_max: float,
    rng: np.random.Generator,
    n_components: int = 6,
    activity: np.ndarray | None = None,
) -> np.ndarray:
    """A random signal whose spectrum lives strictly below ``f_max``.

    Built as a sum of ``n_components`` sinusoids with frequencies drawn
    uniformly from ``(0.1 * f_max, f_max)`` and 1/f-flavoured amplitudes,
    optionally modulated by a time-varying ``activity`` envelope (used by
    the adaptive-sampling experiment to create quiet and busy stretches).

    Args:
        duration: Signal length in seconds.
        rate_hz: Generation rate (must satisfy Nyquist for ``f_max``).
        f_max: Highest frequency present.
        rng: Random generator.
        n_components: Number of sinusoidal components.
        activity: Optional per-sample envelope in [0, 1].

    Returns:
        Array of ``round(duration * rate_hz)`` samples.
    """
    if rate_hz < 2 * f_max:
        raise AcquisitionError(
            f"generation rate {rate_hz} Hz under-samples f_max {f_max} Hz"
        )
    n = int(round(duration * rate_hz))
    t = np.arange(n) / rate_hz
    freqs = rng.uniform(0.1 * f_max, f_max, size=n_components)
    phases = rng.uniform(0, 2 * np.pi, size=n_components)
    amps = rng.uniform(0.5, 1.0, size=n_components) / np.sqrt(freqs / freqs.min())
    signal = np.zeros(n)
    for f, ph, a in zip(freqs, phases, amps):
        signal += a * np.sin(2 * np.pi * f * t + ph)
    if activity is not None:
        envelope = np.asarray(activity, dtype=float)
        if envelope.shape != (n,):
            raise AcquisitionError(
                f"activity envelope shape {envelope.shape} != ({n},)"
            )
        signal = signal * envelope
    return signal


@dataclass
class CyberGloveSimulator:
    """Generates full 28-sensor hand-rig sessions.

    Attributes:
        sensors: Channel specs (defaults to the paper's 28-sensor rig).
        rate_hz: Device clock (paper: ~100 Hz).
        noise: Corruption applied to every channel.
    """

    sensors: tuple[SensorSpec, ...] = HAND_RIG_SENSORS
    rate_hz: float = GLOVE_RATE_HZ
    noise: NoiseModel = field(default_factory=lambda: NoiseModel(white_sigma=0.3))

    @property
    def width(self) -> int:
        """Number of channels per frame."""
        return len(self.sensors)

    def capture(
        self,
        duration: float,
        rng: np.random.Generator,
        activity: np.ndarray | None = None,
    ) -> np.ndarray:
        """Simulate a free-motion session.

        Each channel gets an independent band-limited signal at its spec's
        ``max_frequency_hz``, scaled into the sensor's physical span,
        centred mid-range, then corrupted by the noise model.

        Args:
            duration: Session length in seconds.
            rng: Random generator (determinism is the caller's business).
            activity: Optional shared activity envelope, one value per
                output frame.

        Returns:
            ``(frames, channels)`` matrix.
        """
        if duration <= 0:
            raise AcquisitionError(f"duration must be positive, got {duration}")
        n = int(round(duration * self.rate_hz))
        session = np.empty((n, self.width))
        for col, spec in enumerate(self.sensors):
            raw = band_limited_signal(
                duration, self.rate_hz, spec.max_frequency_hz, rng,
                activity=activity,
            )
            # Normalize into ~1/3 of the physical span around mid-range.
            span = spec.hi - spec.lo
            centre = 0.5 * (spec.hi + spec.lo)
            peak = float(np.max(np.abs(raw))) or 1.0
            session[:, col] = centre + raw / peak * (span / 6.0)
        return self.noise.apply(session, rng)
