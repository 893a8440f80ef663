"""E10 — §3.1: DFT / autocorrelation / MSE techniques identify f_max
"within a specified confidence threshold".

Workload: band-limited synthetic sensor signals with known ground-truth
f_max (1-10 Hz, the hand-motion regime), 20 s at 100 Hz.  Reported per
estimator: mean relative error against the true f_max and the resulting
Nyquist-rate safety (an estimator that reads low causes aliasing; one that
reads high wastes bandwidth).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.nyquist import (
    estimate_fmax_autocorr,
    estimate_fmax_dft,
    estimate_fmax_mse,
)
from repro.sensors.glove import band_limited_signal

from _util import format_table

RATE = 100.0
TRUE_FMAX = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
N_TRIALS = 5

ESTIMATORS = {
    "dft": lambda s: estimate_fmax_dft(s, RATE),
    "autocorr": lambda s: estimate_fmax_autocorr(s, RATE),
    "mse": lambda s: estimate_fmax_mse(s, RATE, tolerance=0.03),
}


def run_study():
    rng = np.random.default_rng(10)
    errors = {name: [] for name in ESTIMATORS}
    undershoot = {name: 0 for name in ESTIMATORS}
    total = 0
    for f_max in TRUE_FMAX:
        for _ in range(N_TRIALS):
            signal = band_limited_signal(20.0, RATE, f_max, rng)
            total += 1
            for name, estimate in ESTIMATORS.items():
                got = estimate(signal)
                errors[name].append(abs(got - f_max) / f_max)
                if got < 0.5 * f_max:
                    undershoot[name] += 1
    rows = [
        [
            name,
            f"{np.mean(errors[name]):.3f}",
            f"{np.max(errors[name]):.3f}",
            f"{undershoot[name]}/{total}",
        ]
        for name in ESTIMATORS
    ]
    return errors, undershoot, total, rows


def test_e10_rate_estimators(emit, benchmark):
    errors, undershoot, total, rows = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )
    emit(
        "E10_nyquist_estimators",
        format_table(
            ["estimator", "mean rel. error", "max rel. error",
             "severe undershoots"],
            rows,
        ),
    )
    # The DFT estimator is the accurate one (it is what §3.1.1 keeps).
    assert np.mean(errors["dft"]) < 0.15
    assert np.mean(errors["dft"]) <= np.mean(errors["autocorr"])
    # It must essentially never alias (undershoot by 2x).
    assert undershoot["dft"] == 0
