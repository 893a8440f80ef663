"""P6 — hundred-scale batched ingestion.

PR 7's tentpole: make the *write* side scale the way PR 6 made the
read side scale.  Four claims, all recorded in ``BENCH_p6.json`` (CI
artifact):

1. **Single-thread batch-append speedup >= 5x at batch 256.**  256
   weighted points through :class:`~repro.query.ingest.BatchInserter`
   (one coalesced ``read_many`` + one group-commit ``write_many`` per
   touched-block union) against 256 sequential ``insert`` calls on an
   identical uncached sharded stack.
2. **Bitwise identity.**  After both runs, every stored coefficient is
   equal with ``==`` — the batch path must not drift a single ulp.
3. **>= 100 concurrent sessions, bounded lag, zero loss.**  120 live
   sessions feed one :class:`~repro.streams.ingest.IngestService`;
   every recorded sample must be committed (count re-derived from the
   cube itself) and the commit queue must drain to empty.
4. **Degrade-don't-drop under overload, recover on drain.**  A
   deliberately tiny queue with a slow device forces sustained
   pressure: the :class:`~repro.streams.ingest.BandwidthCoordinator`
   must cap rates (``ingest.degraded_rate_seconds`` > 0), commit every
   recorded sample anyway, and restore full rates once drained.  The
   same section replays ingestion over a 5%-write-fault device (with
   the device stack's retry policy) and requires zero data loss.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs import MetricsRegistry, use_registry
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.storage.latency import LatencyModel
from repro.streams import BandwidthCoordinator, IngestService

from conftest import format_table

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_p6.json"

BATCH_SIZE = 256
APPEND_LATENCY_S = 0.0005  # per block I/O on the append comparison stack
N_SESSIONS = 120
TICKS_PER_SESSION = 25
SENSORS_PER_SESSION = 2
CUBE_SHAPE = (64, 64)


def make_cube() -> np.ndarray:
    rng = np.random.default_rng(2007)
    return rng.poisson(3.0, CUBE_SHAPE).astype(float)


def build_engine(latency_s: float = 0.0, **spec_kwargs):
    """4-shard uncached stack; nonzero latency makes I/O count."""
    if latency_s:
        spec_kwargs.setdefault("latency", LatencyModel(base_s=latency_s))
    return ProPolyneEngine(
        make_cube(), max_degree=1, block_size=7,
        storage=StorageSpec(shards=4, **spec_kwargs),
    )


def _all_coefficients(engine) -> dict:
    return {
        block_id: engine.store.fetch_block(block_id)
        for block_id in sorted(engine._block_norms)
    }


def _to_point(sample):
    return (
        int(sample.sensor_id) % CUBE_SHAPE[0],
        int(min(CUBE_SHAPE[1] - 1, abs(sample.value) * 8)),
    )


def run_batch_append() -> dict:
    """Claims 1 + 2: sequential vs batched append, bitwise-compared."""
    rng = np.random.default_rng(11)
    points = [
        tuple(map(int, rng.integers(0, CUBE_SHAPE[0], 2)))
        for _ in range(BATCH_SIZE)
    ]
    points += points[: BATCH_SIZE // 8]  # real traffic revisits cells
    weights = list(rng.normal(loc=1.0, size=len(points)))

    sequential_engine = build_engine(APPEND_LATENCY_S)
    started = time.perf_counter()
    for point, weight in zip(points, weights):
        sequential_engine.insert(point, weight)
    sequential_s = time.perf_counter() - started

    batched_engine = build_engine(APPEND_LATENCY_S)
    inserter = BatchInserter(batched_engine)
    started = time.perf_counter()
    touched = inserter.insert_batch(points, weights)
    batched_s = time.perf_counter() - started

    seq_coeffs = _all_coefficients(sequential_engine)
    bat_coeffs = _all_coefficients(batched_engine)
    total = sum(len(block) for block in seq_coeffs.values())
    identical = sum(
        int(np.count_nonzero(seq_coeffs[block_id] == bat_coeffs[block_id]))
        for block_id in seq_coeffs
    )
    sequential_engine.store.close()
    batched_engine.store.close()
    return {
        "points": len(points),
        "distinct_coefficients_touched": touched,
        "sequential_s": round(sequential_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2),
        "bitwise_identical": f"{identical}/{total}",
        "all_identical": identical == total,
    }


def run_many_sessions() -> dict:
    """Claim 3: 120 concurrent sessions, bounded lag, zero loss."""
    engine = build_engine()
    service = IngestService(
        engine, queue_capacity=4096, commit_batch=BATCH_SIZE
    )
    rng = np.random.default_rng(23)
    started = time.perf_counter()
    with service:
        sessions = [
            service.open_session(
                f"s{i}",
                StreamingAdaptiveSampler(
                    width=SENSORS_PER_SESSION,
                    rate_hz=float(TICKS_PER_SESSION),
                    window_seconds=2.0,
                ),
                _to_point,
            )
            for i in range(N_SESSIONS)
        ]
        peak_depth = 0
        for _ in range(TICKS_PER_SESSION):
            for session in sessions:
                session.push(rng.normal(size=SENSORS_PER_SESSION))
            peak_depth = max(peak_depth, service.queue_depth)
        service.flush()
        drained_s = time.perf_counter() - started
        submitted = sum(s.submitted for s in sessions)
        for session in sessions:
            session.close()
    cube_total = engine.evaluate_exact(
        RangeSumQuery.count(
            [(0, CUBE_SHAPE[0] - 1), (0, CUBE_SHAPE[1] - 1)]
        )
    ) - float(np.sum(make_cube()))
    engine.store.close()
    return {
        "sessions": N_SESSIONS,
        "submitted": submitted,
        "committed": service.committed_points,
        "commits": service.commits,
        "peak_queue_depth": peak_depth,
        "final_queue_depth": service.queue_depth,
        "elapsed_s": round(drained_s, 4),
        "cube_delta_matches": bool(abs(cube_total - submitted) < 1e-6),
        "zero_loss": (
            service.committed_points == submitted
            and not service.failed_batches
        ),
    }


def run_overload_and_faults() -> dict:
    """Claim 4: degrade under pressure, recover on drain, survive faults."""
    engine = build_engine(
        0.002,
        fault_plan=FaultPlan(seed=31, write_error_rate=0.05),
        retry_policy=RetryPolicy(
            max_attempts=8, base_delay_s=0.0001, max_delay_s=0.001,
            budget_s=1.0,
        ),
    )
    coordinator = BandwidthCoordinator(
        high_watermark=0.5, low_watermark=0.2,
        sustain_ticks=2, degrade_factor=0.5, min_scale=0.25,
    )
    service = IngestService(
        engine, queue_capacity=128, commit_batch=16,
        coordinator=coordinator, poll_seconds=0.005,
    )
    rng = np.random.default_rng(41)
    with use_registry(MetricsRegistry()) as reg:
        with service:
            sessions = [
                service.open_session(
                    f"o{i}",
                    StreamingAdaptiveSampler(
                        width=SENSORS_PER_SESSION, rate_hz=64.0
                    ),
                    _to_point,
                )
                for i in range(8)
            ]
            for _ in range(120):
                for session in sessions:
                    session.push(rng.normal(size=SENSORS_PER_SESSION))
            was_degraded = coordinator.degraded
            min_scale_seen = coordinator.scale
            service.flush()
            deadline = time.monotonic() + 10.0
            while coordinator.degraded and time.monotonic() < deadline:
                time.sleep(0.01)
            submitted = sum(s.submitted for s in sessions)
            for session in sessions:
                session.close()
        degraded_seconds = reg.counter(
            "ingest.degraded_rate_seconds"
        ).value
        degradations = reg.counter("ingest.degradations").value
    engine.store.close()
    return {
        "fault_write_error_rate": 0.05,
        "submitted": submitted,
        "committed": service.committed_points,
        "degradations": int(degradations),
        "min_rate_scale": min_scale_seen,
        "degraded_rate_seconds": round(float(degraded_seconds), 4),
        "was_degraded_under_pressure": bool(
            was_degraded or degradations > 0
        ),
        "recovered_on_drain": not coordinator.degraded,
        "zero_loss": (
            service.committed_points == submitted
            and not service.failed_batches
        ),
    }


def run_benchmark() -> dict:
    append = run_batch_append()
    sessions = run_many_sessions()
    overload = run_overload_and_faults()
    payload = {
        "schema": "repro.bench/ingest-v1",
        "batch_size": BATCH_SIZE,
        "append_latency_s": APPEND_LATENCY_S,
        "batch_append": append,
        "many_sessions": sessions,
        "overload_and_faults": overload,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_p6_ingest(emit, benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    append = payload["batch_append"]
    sessions = payload["many_sessions"]
    overload = payload["overload_and_faults"]
    rows = [
        ["batch append", f"{append['sequential_s'] * 1e3:.0f}",
         f"{append['batched_s'] * 1e3:.0f}", f"{append['speedup']}x"],
    ]
    emit(
        "P6_ingest",
        format_table(
            ["path", "sequential ms", "batched ms", "speedup"], rows
        )
        + f"\nbitwise identical: {append['bitwise_identical']}"
        + f"\n{sessions['sessions']} sessions: "
        f"{sessions['committed']}/{sessions['submitted']} committed in "
        f"{sessions['elapsed_s']}s "
        f"(peak queue {sessions['peak_queue_depth']})"
        + f"\noverload: {overload['degradations']} degradations, "
        f"{overload['degraded_rate_seconds']}s degraded, "
        f"recovered={overload['recovered_on_drain']}, "
        f"zero_loss={overload['zero_loss']} at "
        f"{overload['fault_write_error_rate']:.0%} write faults"
        + f"\nJSON baseline written to {JSON_PATH.name}",
    )
    # The headline claims of PR 7:
    assert append["all_identical"], "batch append must be bitwise exact"
    assert append["speedup"] >= 5.0
    assert sessions["sessions"] >= 100
    assert sessions["zero_loss"]
    assert sessions["cube_delta_matches"]
    assert sessions["final_queue_depth"] == 0
    assert overload["was_degraded_under_pressure"]
    assert overload["degraded_rate_seconds"] > 0
    assert overload["recovered_on_drain"]
    assert overload["zero_loss"]


if __name__ == "__main__":
    # Import-safe direct invocation (no work at module import time).
    print(json.dumps(run_benchmark(), indent=2))
