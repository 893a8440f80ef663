"""Ablation A8 — causal (online) vs clairvoyant (offline) adaptive
sampling.

The offline sampler of E1 re-estimates rates from the window it is about
to decimate — a mild form of lookahead a live system cannot have.  The
causal sampler applies the *previous* window's estimate to the next one.
Reported: bytes and reconstruction NRMSE for both on the same bursty
session; the causal penalty should be a modest constant factor, not a
regime change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.sampling import AdaptiveSampler, SAMPLE_BYTES
from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel

from _util import format_table

DURATION = 30.0
RATE = 100.0


def make_session():
    sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
    rng = np.random.default_rng(81)
    n = int(DURATION * RATE)
    activity = np.ones(n)
    t = 0
    while t < n:
        span = int(rng.uniform(2.0, 4.0) * RATE)
        if rng.random() < 0.5:
            activity[t : t + span] = 0.05
        t += span
    return sim.capture(DURATION, rng, activity=activity)


def causal_reconstruct(samples, session):
    ticks = np.arange(session.shape[0])
    out = np.empty_like(session)
    per_sensor = {s: ([], []) for s in range(session.shape[1])}
    for smp in samples:
        t_list, v_list = per_sensor[smp.sensor_id]
        t_list.append(int(round(smp.timestamp * RATE)))
        v_list.append(smp.value)
    for s, (t_list, v_list) in per_sensor.items():
        out[:, s] = np.interp(ticks, t_list, v_list)
    spread = session.max() - session.min()
    return float(np.sqrt(np.mean((out - session) ** 2))) / spread


def run_comparison():
    session = make_session()
    offline = AdaptiveSampler().sample(session, RATE)
    online = StreamingAdaptiveSampler(width=28, rate_hz=RATE)
    online_samples = online.process(session)
    online_bytes = len(online_samples) * SAMPLE_BYTES

    rows = [
        ["offline (clairvoyant)", offline.bytes_required,
         f"{offline.nrmse(session):.4f}"],
        ["causal (streaming)", online_bytes,
         f"{causal_reconstruct(online_samples, session):.4f}"],
    ]
    return offline.bytes_required, online_bytes, rows


def test_a8_causal_penalty_modest(emit, benchmark):
    offline_bytes, online_bytes, rows = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    emit(
        "A8_causal_vs_offline",
        format_table(["sampler", "bytes", "NRMSE"], rows),
    )
    raw = int(DURATION * RATE) * 28 * SAMPLE_BYTES
    # Both save heavily over raw; the causal penalty is a small factor.
    assert online_bytes < raw / 3
    assert online_bytes < 3 * offline_bytes
