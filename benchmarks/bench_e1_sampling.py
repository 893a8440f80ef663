"""E1 — §3.1: adaptive sampling needs far less bandwidth than the other
strategies, and beats zip-style (Huffman) block compression.

Workload: a 30-second 28-sensor CyberGlove session with a bursty activity
profile (quiet stretches between motion bursts — the regime immersive
sessions actually produce).  Reported per strategy: bytes recorded,
bandwidth, reconstruction NRMSE; plus the Huffman-compressed full-rate
recording as the "Unix zip" baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.huffman import compressed_size
from repro.acquisition.sampling import (
    AdaptiveSampler,
    FixedSampler,
    GroupedSampler,
    ModifiedFixedSampler,
)
from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel

from _util import format_table

DURATION = 30.0
RATE = 100.0


@pytest.fixture(scope="module")
def session():
    sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
    n = int(DURATION * RATE)
    # Bursty activity: 1 = moving, 0.05 = nearly still, in ~3 s stretches.
    rng = np.random.default_rng(1)
    activity = np.ones(n)
    t = 0
    while t < n:
        span = int(rng.uniform(2.0, 4.0) * RATE)
        if rng.random() < 0.5:
            activity[t : t + span] = 0.05
        t += span
    return sim.capture(DURATION, rng, activity=activity)


def run_comparison(session):
    strategies = [
        FixedSampler(),
        ModifiedFixedSampler(),
        GroupedSampler(n_groups=3),
        AdaptiveSampler(),
    ]
    raw_bytes = session.size * 4
    rows = []
    byte_counts = {}
    for strategy in strategies:
        result = strategy.sample(session, RATE)
        byte_counts[strategy.name] = result.bytes_required
        rows.append(
            [
                strategy.name,
                result.bytes_required,
                f"{result.bytes_required / raw_bytes:.1%}",
                f"{result.bandwidth_bps(DURATION):.0f}",
                f"{result.nrmse(session):.4f}",
            ]
        )
    zip_bytes = compressed_size(session, quantization=0.1)
    byte_counts["huffman_zip"] = zip_bytes
    rows.append(
        ["huffman_zip", zip_bytes, f"{zip_bytes / raw_bytes:.1%}",
         f"{zip_bytes / DURATION:.0f}", "(lossless @0.1 quant)"]
    )
    rows.append(["raw", raw_bytes, "100.0%", f"{raw_bytes / DURATION:.0f}", "0"])
    return byte_counts, rows


def test_e1_adaptive_wins_bandwidth(session, emit, benchmark):
    byte_counts, rows = benchmark.pedantic(
        run_comparison, args=(session,), rounds=1, iterations=1
    )
    table = format_table(
        ["strategy", "bytes", "of raw", "bytes/s", "NRMSE"], rows
    )
    emit("E1_sampling_bandwidth", table)

    # The paper's ordering claims.
    assert byte_counts["adaptive"] < byte_counts["grouped"], (
        "adaptive must beat grouped"
    )
    assert byte_counts["grouped"] <= byte_counts["fixed"], (
        "grouped must not exceed fixed"
    )
    assert byte_counts["modified_fixed"] <= byte_counts["fixed"], (
        "modified fixed must not exceed fixed"
    )
    # "superior savings" vs zip-style block compression.
    assert byte_counts["adaptive"] < byte_counts["huffman_zip"], (
        "adaptive must beat Huffman block compression"
    )
    # And the headline: "far less bandwidth" — a clear factor under fixed.
    assert byte_counts["adaptive"] * 1.5 < byte_counts["fixed"]
