"""A chaos drill through the sharded resilience stack: faults in,
bounds out.

Storage is built from one declarative
:class:`~repro.storage.device.StorageSpec` — four shards under one
small block cache, CRC framing, seeded fault injection, retries and a
per-shard circuit breaker — and the drill walks the failure ladder:

1. transient faults on every shard, absorbed silently by retries —
   answers stay exact;
2. a deadline cut — the query downgrades to its best progressive
   estimate with a *guaranteed* error bound, explicitly flagged;
3. a single-shard outage — only that shard's breaker trips, the three
   healthy shards keep answering, and the query degrades to a bounded
   estimate (``blocks_skipped`` counts the unreachable blocks) instead
   of failing;
4. healing — injection stops, the half-open probe closes the tripped
   breaker, and answers return to exact.

Everything is observable: the drill ends with the ``faults.*`` /
``retry.*`` / ``breaker.*`` counters the run produced (the series
``docs/OPERATIONS.md`` explains how to read under load).

Run:
    python examples/chaos_drill.py
"""

from __future__ import annotations

import numpy as np

from repro.core import clock
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.obs import counter as obs_counter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec

SHARDS = 4


def build(storage: StorageSpec | None = None) -> ProPolyneEngine:
    rng = np.random.default_rng(2003)
    cube = rng.poisson(3.0, (64, 64)).astype(float)
    return ProPolyneEngine(cube, max_degree=1, block_size=7,
                           storage=storage)


def breaker_states(engine: ProPolyneEngine) -> str:
    return "/".join(b.state for b in engine.store.breakers)


def main() -> None:
    query = RangeSumQuery.count([(10, 40), (5, 50)])
    clean = build()
    truth = clean.evaluate_exact(query)
    print(f"ground truth (clean store): COUNT = {truth:.0f}")

    # ---- 1. transient faults: retries absorb them ---------------------------
    print(f"\n== {SHARDS} shards, 5% injected read faults on every one, "
          f"retries enabled ==")
    engine = build(StorageSpec(
        shards=SHARDS,
        cache_blocks=16,
        fault_plan=FaultPlan(seed=7, read_error_rate=0.05, torn_rate=0.02),
        retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.0005),
        breaker=CircuitBreaker(failure_threshold=8,
                               recovery_timeout_s=0.05),
    ))
    outcome = engine.evaluate_degradable(query)
    print(f"answer {outcome.value:.0f} (degraded={outcome.degraded}) — "
          f"bitwise equal to truth: {outcome.value == truth}")
    print(f"the cost was time, not correctness: "
          f"{obs_counter('retry.retries').value:.0f} retries, "
          f"{obs_counter('retry.recoveries').value:.0f} recoveries")

    # ---- 2. a deadline: degrade to a bounded estimate -----------------------
    print("\n== per-query deadline of 0 s (worst case) ==")
    rushed = engine.evaluate_degradable(query, deadline_s=0.0)
    print(f"degraded={rushed.degraded} reason={rushed.reason!r}: "
          f"estimate {rushed.value:.0f} after {rushed.blocks_read} blocks, "
          f"guaranteed |error| <= {rushed.error_bound:.1f}")
    print(f"guarantee holds: "
          f"{abs(rushed.value - truth) <= rushed.error_bound}")

    # ---- 3. one shard dies: the others keep answering -----------------------
    print("\n== shard 1 outage: every read on that shard fails ==")
    stormy = build(StorageSpec(
        shards=SHARDS,
        cache_blocks=16,
        fault_plan=FaultPlan(seed=9, read_error_rate=1.0),
        fault_shards=(1,),
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                 budget_s=0.0),
        breaker=CircuitBreaker(failure_threshold=3,
                               recovery_timeout_s=0.01),
    ))
    for i in range(3):
        out = stormy.evaluate_degradable(query)
        print(f"query {i + 1}: degraded={out.degraded} "
              f"reason={out.reason!r} skipped={out.blocks_skipped} "
              f"breakers={breaker_states(stormy)}")
        print(f"  bounded estimate {out.value:.0f}, "
              f"|error| <= {out.error_bound:.1f} "
              f"(holds: {abs(out.value - truth) <= out.error_bound})")
    # Storage "heals": stop injecting and let shard 1's half-open probe
    # close its breaker.  The declarative stack heals as one unit.
    stormy.store.set_injecting(False)
    clock.sleep(0.02)  # past the recovery timeout: probes are allowed
    healed = stormy.evaluate_degradable(query)
    print(f"after healing: degraded={healed.degraded}, "
          f"answer {healed.value:.0f}, "
          f"breakers={breaker_states(stormy)}")

    # ---- 4. the operator's view ---------------------------------------------
    print("\n== resilience counters this drill produced ==")
    for name in (
        "faults.injected.read_errors", "faults.injected.torn_blocks",
        "faults.crc_failures", "retry.attempts", "retry.retries",
        "retry.recoveries", "retry.giveups", "breaker.trips",
        "breaker.rejections", "query.degraded",
    ):
        print(f"  {name:30s} {obs_counter(name).value:.0f}")


if __name__ == "__main__":
    main()
