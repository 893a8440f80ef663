"""E2 — §3.1: combining ADPCM with adaptive sampling yields only
"marginal improvement".

Workload: the same bursty glove session as E1.  Reported: bytes and NRMSE
for {fixed, adaptive} x {raw floats, +ADPCM}.  The shape to reproduce:
ADPCM's nominal 8:1 ratio pays off on the redundant fixed-rate recording,
but once adaptive sampling has stripped the redundancy the *additional*
saving is bought with a visible accuracy loss — the combination is not
the multiplicative win the ratios suggest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.combined import compress_sampled
from repro.acquisition.sampling import AdaptiveSampler, FixedSampler
from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel

from _util import format_table

DURATION = 30.0
RATE = 100.0


@pytest.fixture(scope="module")
def session():
    sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
    rng = np.random.default_rng(2)
    n = int(DURATION * RATE)
    activity = np.ones(n)
    t = 0
    while t < n:
        span = int(rng.uniform(2.0, 4.0) * RATE)
        if rng.random() < 0.5:
            activity[t : t + span] = 0.05
        t += span
    return sim.capture(DURATION, rng, activity=activity)


def run_combinations(session):
    out = {}
    for strategy in (FixedSampler(), AdaptiveSampler()):
        result = strategy.sample(session, RATE)
        out[strategy.name] = (result.bytes_required, result.nrmse(session))
        combined = compress_sampled(result, session)
        out[strategy.name + "+adpcm"] = (
            combined.bytes_required, combined.nrmse
        )
    return out


def test_e2_adpcm_marginal_improvement(session, emit, benchmark):
    out = benchmark.pedantic(
        run_combinations, args=(session,), rounds=1, iterations=1
    )
    rows = [
        [name, bytes_, f"{nrmse:.4f}"]
        for name, (bytes_, nrmse) in out.items()
    ]
    # The quantity the paper's wording is about: how much the *combined*
    # pipeline improves on adaptive sampling alone, vs how much ADPCM
    # improves the fixed pipeline.
    gain_on_fixed = out["fixed"][0] / out["fixed+adpcm"][0]
    gain_on_adaptive = out["adaptive"][0] / out["adaptive+adpcm"][0]
    rows.append(["ADPCM gain on fixed", f"{gain_on_fixed:.2f}x", ""])
    rows.append(["ADPCM gain on adaptive", f"{gain_on_adaptive:.2f}x", ""])
    emit(
        "E2_adpcm_combination",
        format_table(["pipeline", "bytes", "NRMSE"], rows),
    )

    # ADPCM always shrinks the payload ...
    assert out["adaptive+adpcm"][0] < out["adaptive"][0]
    # ... but costs accuracy on the decimated stream ...
    assert out["adaptive+adpcm"][1] >= out["adaptive"][1]
    # ... and the end-to-end marginal gain of the combination (vs what
    # adaptive sampling already achieved) is visibly below ADPCM's
    # nominal 8x.
    assert gain_on_adaptive < 8.0
    # Sanity: adaptive alone already beats fixed+ADPCM on accuracy.
    assert out["adaptive"][1] < out["fixed+adpcm"][1] + 0.02
