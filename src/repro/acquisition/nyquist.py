"""Nyquist-rate estimation for immersive sensor signals.

§3.1 of the AIMS paper: "our sampling techniques are based on the Nyquist
theorem ... a signal must be sampled with a rate twice as fast as the
maximum frequency in the signal: r_nyquist = 2 f_max.  The standard
discrete Fourier transform, auto-correlation, and minimum square error
techniques were applied to each signal to identify f_max within a
specified confidence threshold."

All three estimators are implemented here.  They consume a reference
recording made at the device's maximum rate and return the rate at which
the sensor *actually* needs to be sampled — the number every sampling
strategy in :mod:`repro.acquisition.sampling` is built on.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.core.errors import AcquisitionError

__all__ = [
    "estimate_fmax_dft",
    "estimate_fmax_autocorr",
    "estimate_fmax_mse",
    "estimate_fmax_mse_rows",
    "level_mses",
    "nyquist_rate",
    "required_rates",
]


def _validate(signal: np.ndarray, rate_hz: float) -> np.ndarray:
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 1 or arr.size < 8:
        raise AcquisitionError(
            f"need a 1-D signal of at least 8 samples, got shape {arr.shape}"
        )
    if rate_hz <= 0:
        raise AcquisitionError(f"rate must be positive, got {rate_hz}")
    return arr


def estimate_fmax_dft(
    signal: np.ndarray, rate_hz: float, energy_threshold: float = 0.99
) -> float:
    """Smallest frequency containing ``energy_threshold`` of the AC power.

    The DC component is excluded (a constant offset needs no bandwidth),
    then the periodogram is accumulated from low to high frequency until
    the threshold fraction of total power is covered.

    Args:
        signal: Reference recording at the device rate.
        rate_hz: The device rate.
        energy_threshold: Confidence threshold in (0, 1].

    Returns:
        Estimated ``f_max`` in Hz.
    """
    arr = _validate(signal, rate_hz)
    if not 0 < energy_threshold <= 1:
        raise AcquisitionError(
            f"energy threshold {energy_threshold} outside (0, 1]"
        )
    # Hann window: without it, spectral leakage from block boundaries
    # smears energy across all frequencies and wildly inflates the
    # estimate on short analysis windows.
    window = np.hanning(arr.size)
    spectrum = np.abs(np.fft.rfft((arr - arr.mean()) * window)) ** 2
    spectrum[0] = 0.0
    total = spectrum.sum()
    if total == 0:
        return 0.0
    freqs = np.fft.rfftfreq(arr.size, d=1.0 / rate_hz)
    cumulative = np.cumsum(spectrum) / total
    idx = int(np.searchsorted(cumulative, energy_threshold))
    return float(freqs[min(idx, freqs.size - 1)])


def estimate_fmax_autocorr(signal: np.ndarray, rate_hz: float) -> float:
    """Dominant-frequency estimate from the autocorrelation zero crossing.

    For a narrowband signal of frequency ``f`` the normalized
    autocorrelation first crosses zero at a quarter period,
    ``lag = rate / (4 f)``, so ``f ≈ rate / (4 lag)``.  For wideband
    signals this tracks the dominant component and tends to *under*
    estimate the true ``f_max`` — the behaviour experiment E10 quantifies.
    """
    arr = _validate(signal, rate_hz)
    centred = arr - arr.mean()
    denom = float(np.dot(centred, centred))
    if denom == 0:
        return 0.0
    n = centred.size
    corr = np.correlate(centred, centred, mode="full")[n - 1 :] / denom
    crossings = np.nonzero(corr <= 0)[0]
    if crossings.size == 0:
        # Never decorrelates within the window: essentially DC.
        return float(rate_hz / (4.0 * n))
    lag = int(crossings[0])
    return float(rate_hz / (4.0 * lag))


def estimate_fmax_mse(
    signal: np.ndarray,
    rate_hz: float,
    tolerance: float = 0.05,
    scale: float | None = None,
) -> float:
    """Smallest rate whose decimate-then-interpolate error stays tolerable.

    Tries decimation factors ``k = 1, 2, 4, ...``; for each, keeps every
    ``k``-th sample and linearly interpolates the rest, accepting the
    largest ``k`` whose normalized RMS reconstruction error is below
    ``tolerance``.  Returns the implied ``f_max = (rate / k) / 2``.

    Args:
        signal: Reference recording (or one analysis window of it).
        rate_hz: Device rate.
        tolerance: Acceptable NRMSE.
        scale: Normalization for the error.  Defaults to the signal's own
            spread; pass the sensor's *session-wide* spread to make the
            estimate activity-sensitive — a quiet window then tolerates
            heavy decimation because its absolute error is tiny, which is
            precisely how the paper's adaptive sampling "samples according
            to the level of activity within the session window".
    """
    arr = _validate(signal, rate_hz)
    if not 0 < tolerance < 1:
        raise AcquisitionError(f"tolerance {tolerance} outside (0, 1)")
    spread = float(arr.max() - arr.min()) if scale is None else float(scale)
    if spread <= 0:
        return 0.0
    t = np.arange(arr.size)
    best_k = 1
    k = 2
    while k <= arr.size // 2:
        kept = t[::k]
        approx = np.interp(t, kept, arr[kept])
        nrmse = float(np.sqrt(np.mean((approx - arr) ** 2))) / spread
        if nrmse > tolerance:
            break
        best_k = k
        k *= 2
    return float((rate_hz / best_k) / 2.0)


@lru_cache(maxsize=32)
def _interp_plan(n: int) -> tuple:
    """What ``np.interp(t, t[::k], x[t[::k]])`` reads for every level
    ``k = 2, 4, ... <= n // 2`` of an ``n``-sample window, stacked
    ``(levels, n)``: the samples at the knot at or left of each ``t``
    and at the next knot (the last knot itself from there on: one
    ``(2 * levels, n)`` gather), ``t`` minus the left knot as a float,
    and ``k``."""
    t = np.arange(n)
    lefts, rights, ks = [], [], []
    k = 2
    while k <= n // 2:
        last = (n - 1) // k * k
        lefts.append(np.minimum(t // k * k, last))
        rights.append(np.minimum(lefts[-1] + k, last))
        ks.append(k)
        k *= 2
    left = np.array(lefts)
    offset = (t - left).astype(float)
    return (np.concatenate((left, rights)), len(ks), offset,
            np.array(ks, dtype=float)[:, None])


def level_mses(window: np.ndarray) -> np.ndarray:
    """The mean squared error of decimate-then-interpolate, for every
    row of a ``(sensors, n)`` window and every level ``k = 2, 4, ... <=
    n // 2``, in one array pass: ``(sensors, levels)``, entry ``[s, i]``
    bitwise ``np.mean((np.interp(t, t[::k], row[::k]) - row) ** 2)``
    of ``row = window[s]``, ``k = 2 ** (i + 1)``.

    ``np.interp``'s formula ``(fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) * (x
    - xp[j]) + fp[j]`` is replayed with the right knot clamped to the
    last one, so a knot and every tick past the last knot read ``fp[j]``
    (up to the sign of a zero, which squaring drops), and each row of
    squared errors is summed along the C-ordered last axis, where it
    sums as its 1-D ``np.mean`` does.  Readings must be finite.
    """
    rows = np.ascontiguousarray(window, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 4:
        raise AcquisitionError(
            f"need a (sensors, n >= 4) window, got shape {rows.shape}"
        )
    n = rows.shape[1]
    knots, levels, offset, ks = _interp_plan(n)
    gathered = rows.take(knots, axis=1)
    at_left = gathered[:, :levels]
    # C order, asked for here and kept by the in-place steps: the sum
    # below must run along contiguous rows.
    error = np.subtract(gathered[:, levels:], at_left, order="C")
    error /= ks
    error *= offset
    error += at_left
    error -= rows[:, None, :]
    error *= error
    return np.add.reduce(error, axis=-1) / n


def estimate_fmax_mse_rows(
    window: np.ndarray,
    rate_hz: float,
    tolerance: float,
    scales,
) -> list[float]:
    """:func:`estimate_fmax_mse` of every row of a ``(sensors, n)``
    window at once: row ``s`` gives bitwise
    ``estimate_fmax_mse(window[s], rate_hz, tolerance, scales[s])``,
    and ``0.0`` where ``scales[s] <= 0`` (the reference's answer for a
    constant row).  Every level's error comes from one
    :func:`level_mses` pass; each row's estimate is the level before its
    first failing one.

    Args:
        window: ``(sensors, n)`` finite readings, ``n >= 8``.
        rate_hz: Device rate.
        tolerance: Acceptable NRMSE.
        scales: Per-row error normalization (the sensors' spreads).
    """
    rows = np.asarray(window, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 8:
        raise AcquisitionError(
            f"need a (sensors, n >= 8) window, got shape {rows.shape}"
        )
    if not 0 < tolerance < 1:
        raise AcquisitionError(f"tolerance {tolerance} outside (0, 1)")
    f_maxes = []
    for scale, mses in zip(
        np.asarray(scales, dtype=float).tolist(), level_mses(rows).tolist()
    ):
        if not scale > 0:
            f_maxes.append(0.0)
            continue
        best_k = 1
        for mse in mses:
            if math.sqrt(mse) / scale > tolerance:
                break
            best_k *= 2
        f_maxes.append((rate_hz / best_k) / 2.0)
    return f_maxes


def nyquist_rate(f_max: float) -> float:
    """``r_nyquist = 2 f_max`` (§3.1)."""
    if f_max < 0:
        raise AcquisitionError(f"f_max must be >= 0, got {f_max}")
    return 2.0 * f_max


def required_rates(
    session: np.ndarray,
    rate_hz: float,
    method: str = "dft",
    min_rate_hz: float = 1.0,
    scales: np.ndarray | None = None,
    **kwargs,
) -> np.ndarray:
    """Per-sensor required sampling rates for a ``(frames, sensors)`` session.

    Args:
        session: Full-rate reference recording.
        rate_hz: Device rate of the recording.
        method: One of ``"dft"``, ``"autocorr"``, ``"mse"``.
        min_rate_hz: Floor applied to every estimate (a sensor is never
            sampled slower than this).
        scales: Optional per-sensor error normalization, only meaningful
            for the ``"mse"`` estimator (see :func:`estimate_fmax_mse`).
        **kwargs: Passed to the chosen estimator.

    Returns:
        Array of per-column rates in Hz, each in ``[min_rate_hz, rate_hz]``.
    """
    matrix = np.asarray(session, dtype=float)
    if matrix.ndim != 2:
        raise AcquisitionError(
            f"session must be (frames, sensors), got ndim={matrix.ndim}"
        )
    estimators = {
        "dft": estimate_fmax_dft,
        "autocorr": estimate_fmax_autocorr,
        "mse": estimate_fmax_mse,
    }
    if method not in estimators:
        raise AcquisitionError(
            f"unknown estimator {method!r}; pick one of {sorted(estimators)}"
        )
    if scales is not None and method != "mse":
        raise AcquisitionError(
            "per-sensor scales are only supported by the 'mse' estimator"
        )
    estimate = estimators[method]
    rates = []
    for col in range(matrix.shape[1]):
        extra = dict(kwargs)
        if scales is not None:
            extra["scale"] = float(scales[col])
        rates.append(nyquist_rate(estimate(matrix[:, col], rate_hz, **extra)))
    return np.clip(np.array(rates), min_rate_hz, rate_hz)
