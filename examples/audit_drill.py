"""An audit drill: record a session under faults, replay it bitwise,
time-travel the cube, and read the provenance trail.

The paper's framing is "store once, re-analyze many times"; this drill
makes the *session* the stored artifact, not just the cube it built:

1. a live multi-sensor ingest session runs against a two-shard stack
   with 5 % injected write faults — retries absorb them, the
   ``SessionRecorder`` logs every point that cleared the sampler;
2. the record round-trips through its JSONL serialization
   (``repro.replay/v1``) and replays into a fresh twin engine —
   stored coefficients come back **bitwise-identical**;
3. the twin is epoch-versioned during replay, so ``as_of=`` queries
   walk the cube's history: the same COUNT at every epoch, each
   answer matching what a live query would have said at that moment;
4. shard 0 dies; the degraded historical answer carries a
   :class:`~repro.query.explain.QueryProvenance` record
   (``repro.provenance/v2``) naming the open breaker, the skipped
   blocks, and the guaranteed bound — the artifact an auditor files.

Everything is deterministic (fixed seeds) and ends with the
``replay.*`` / ``epoch.*`` / ``provenance.*`` counters the run
produced (``docs/OPERATIONS.md`` explains the series;
``docs/REPLAY.md`` is the format spec).

Run:
    python examples/audit_drill.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.acquisition.streaming import StreamingAdaptiveSampler
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.obs import counter as obs_counter
from repro.query.explain import attach_provenance
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.streams import IngestService
from repro.streams.replay import (
    SessionRecord,
    SessionRecorder,
    SessionReplayer,
)

SHAPE = (32, 32)
WIDTH = 8
PUSHES = 80


def build(storage: StorageSpec | None = None) -> ProPolyneEngine:
    rng = np.random.default_rng(2003)
    cube = rng.poisson(3.0, SHAPE).astype(float)
    return ProPolyneEngine(cube, max_degree=1, block_size=7,
                           storage=storage)


def to_point(sample) -> tuple[int, int]:
    return (
        int(sample.sensor_id) % SHAPE[0],
        int(min(SHAPE[1] - 1, abs(sample.value) * 8)),
    )


def main() -> None:
    query = RangeSumQuery.count([(4, 23), (6, 27)])

    # ---- 1. record a live session under a 5 % write-fault storm ------------
    stormy_writes = StorageSpec(
        shards=2,
        fault_plan=FaultPlan(seed=11, write_error_rate=0.05),
        retry_policy=RetryPolicy(max_attempts=8, base_delay_s=0.0001,
                                 max_delay_s=0.001, budget_s=0.05),
    )
    source = build(stormy_writes)
    recorder = SessionRecorder()
    rng = np.random.default_rng(7)
    with IngestService(source, commit_batch=32,
                       recorder=recorder) as service:
        session = service.open_session(
            "glove-42",
            StreamingAdaptiveSampler(width=WIDTH, rate_hz=64.0),
            to_point,
        )
        for _ in range(PUSHES):
            session.push(rng.normal(size=WIDTH))
        session.close()
    assert service.committed_points == session.submitted, "drill lost points"
    live_answer = source.evaluate_exact(query)
    record = recorder.record("glove-42")
    print(f"recorded session: {record.points} points, "
          f"{record.rate_changes} rate changes, closed={record.closed}")
    print(f"live COUNT after session = {live_answer:.0f}")

    # ---- 2. JSONL round-trip, then bitwise replay into a twin --------------
    wire = record.to_json()
    parsed = SessionRecord.from_json(wire)
    assert parsed.to_json() == wire, "round-trip must be byte-exact"
    print(f"record serialized: {len(wire)} bytes, round-trip exact")

    twin = build(StorageSpec(shards=2))
    twin.enable_versioning()
    epoch_answers = [(twin.epoch, twin.evaluate_exact(query))]
    SessionReplayer(parsed).replay_into(twin, commit_batch=16)
    epoch_answers.append((twin.epoch, twin.evaluate_exact(query)))
    identical = (twin.to_coefficients().tobytes()
                 == source.to_coefficients().tobytes())
    print(f"replayed into twin: coefficients bitwise-identical = "
          f"{identical}")
    assert identical

    # ---- 3. time travel: the cube at every recorded moment -----------------
    print(f"twin history: {twin.epoch} epochs "
          f"(floor={twin.epoch_log.floor})")
    for epoch, expected in epoch_answers:
        as_of = twin.evaluate_exact(query, as_of=epoch)
        marker = "ok" if as_of == expected else "MISMATCH"
        print(f"  as_of={epoch:>3}: COUNT = {as_of:10.4f}  [{marker}]")
        assert as_of == expected
    before, after = epoch_answers[0][1], epoch_answers[-1][1]
    print(f"the session added {after - before:.0f} to the count — "
          f"and epoch 0 still answers {before:.0f}")

    # ---- 4. kill a shard; the degraded answer explains itself --------------
    dead_shard = StorageSpec(
        shards=2,
        fault_plan=FaultPlan(seed=3, read_error_rate=1.0),
        fault_shards=(0,),
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                 budget_s=0.0),
        breaker=CircuitBreaker(failure_threshold=1,
                               recovery_timeout_s=60.0),
    )
    audit = build(dead_shard)
    audit.store.set_injecting(False)
    audit.enable_versioning()
    SessionReplayer(parsed).replay_into(audit)
    audit.store.set_injecting(True)

    outcome = audit.evaluate_degradable(query, as_of=0)
    outcome = attach_provenance(audit, query, outcome, as_of=0)
    prov = outcome.provenance
    assert outcome.degraded and prov.reason == "storage_unavailable"
    assert "open" in prov.breaker_states.values()
    print("\nshard 0 dead; the as-of answer degrades *and explains "
          "itself*:")
    print(json.dumps(prov.to_dict(), indent=2))
    print(f"audit reading: {prov.blocks_skipped} of "
          f"{prov.blocks_planned} planned blocks unreachable, error "
          f"<= {prov.error_bound:.4f}, answer describes epoch "
          f"{prov.epoch} of {prov.current_epoch}")

    # ---- the series the run produced ---------------------------------------
    print("\naudit-trail counters:")
    for name in ("replay.recorded_points", "replay.points",
                 "epoch.commits", "epoch.preimage_reads",
                 "provenance.records", "provenance.degraded_records"):
        print(f"  {name:32} {obs_counter(name).value:g}")


if __name__ == "__main__":
    main()
