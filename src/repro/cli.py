"""Command-line front end for the AIMS reproduction.

Usage::

    python -m repro.cli glove --duration 10          # simulate + sample
    python -m repro.cli adhd --subjects 20           # run the §2.1 study
    python -m repro.cli asl --signs GREEN RED HELLO  # stream recognition
    python -m repro.cli olap                         # Fig. 4 pivot demo
    python -m repro.cli chaos --fault-rate 0.05      # resilience drill
    python -m repro.cli stats                        # observability report
    python -m repro.cli lint --format json           # invariant linter
    python -m repro.cli info                         # system inventory

Each subcommand is a thin wrapper over the public API, so the CLI doubles
as executable documentation.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.sensors.model import CYBERGLOVE_SENSORS, HAND_RIG_SENSORS

    print(f"repro {repro.__version__} — AIMS (CIDR 2003) reproduction")
    print(f"subsystems: acquisition, storage, off-line query (ProPolyne), "
          f"online query (weighted SVD)")
    print(f"hand rig: {len(HAND_RIG_SENSORS)} sensors "
          f"({len(CYBERGLOVE_SENSORS)} CyberGlove + 6 Polhemus)")
    print("see DESIGN.md for the full inventory, EXPERIMENTS.md for the "
          "paper-vs-measured comparison")
    return 0


def _cmd_glove(args: argparse.Namespace) -> int:
    from repro import AIMS, AIMSConfig
    from repro.sensors.glove import CyberGloveSimulator

    rng = np.random.default_rng(args.seed)
    system = AIMS(AIMSConfig(sampler=args.sampler))
    sim = CyberGloveSimulator()
    session = sim.capture(args.duration, rng)
    report = system.acquire(session, sim.rate_hz)
    raw = session.size * 4
    print(f"session: {session.shape[0]} frames x {session.shape[1]} sensors")
    print(f"strategy {args.sampler!r}: {report.bytes_recorded} bytes "
          f"({report.bytes_recorded / raw:.1%} of raw), "
          f"NRMSE {report.nrmse:.4f}")
    return 0


def _cmd_adhd(args: argparse.Namespace) -> int:
    from repro.analysis.features import cohort_features
    from repro.analysis.svm import SVM
    from repro.analysis.validation import cross_validate
    from repro.sensors.classroom import generate_cohort

    rng = np.random.default_rng(args.seed)
    cohort = generate_cohort(args.subjects, rng, duration=args.duration)
    x, y = cohort_features(cohort)
    result = cross_validate(lambda: SVM(c=1.0), x, y, k=min(5, args.subjects))
    print(f"{2 * args.subjects} subjects, {args.duration:.0f}s sessions")
    print(f"SVM on tracker motion speed: "
          f"{result['mean_accuracy']:.1%} +/- {result['std_accuracy']:.1%} "
          f"({int(result['folds'])}-fold CV)   [paper: ~86%]")
    return 0


def _cmd_asl(args: argparse.Namespace) -> int:
    from repro import AIMS
    from repro.online.recognizer import RecognizerConfig
    from repro.sensors.asl import (
        ASL_VOCABULARY,
        synthesize_session,
        synthesize_sign,
    )

    by_name = {s.name: s for s in ASL_VOCABULARY}
    unknown = [n for n in args.signs if n not in by_name]
    if unknown:
        print(f"unknown signs {unknown}; available: {sorted(by_name)}",
              file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    specs = [by_name[n] for n in args.signs]
    system = AIMS()
    system.train_vocabulary(
        {s.name: [synthesize_sign(s, rng).frames for _ in range(4)]
         for s in specs}
    )
    frames, segments = synthesize_session(specs, rng, gap_duration=0.8)
    recognizer = system.recognizer(
        rest_frames=frames[: segments[0].start],
        config=RecognizerConfig(window=50, compare_every=10,
                                declare_threshold=0.4, decline_steps=3),
    )
    detections = recognizer.process(frames)
    print(f"truth   : {[s.name for s in segments]}")
    print(f"detected: {[d.name for d in detections]}")
    return 0


def _cmd_olap(args: argparse.Namespace) -> int:
    from repro import AIMS
    from repro.query.rangesum import RangeSumQuery

    cube = _atmospheric_count_cube(np.random.default_rng(args.seed), 32)
    system = AIMS()
    engine = system.populate("atm", cube)
    query = RangeSumQuery.count([(8, 23), (4, 27), (12, 31)])
    exact = engine.evaluate_exact(query)
    print(f"progressive COUNT over a temperate region (exact {exact:.0f}):")
    for est in engine.evaluate_progressive(query):
        if est.blocks_read in (1, 2, 4, 8, 16, 32):
            print(f"  {est.blocks_read:3d} blocks: {est.estimate:9.1f} "
                  f"+/- {est.error_bound:8.1f}")
        if est.error_bound < 0.01 * max(abs(exact), 1.0):
            print(f"  1%-guarantee reached after {est.blocks_read} blocks")
            break
    return 0


def _atmospheric_count_cube(rng: np.random.Generator, n: int) -> np.ndarray:
    """A small quantized atmospheric frequency cube (shared demo fixture)."""
    from repro.query.rangesum import relation_to_cube
    from repro.sensors.atmosphere import atmospheric_cube

    field = atmospheric_cube((n, n), rng)
    lo, hi = field.min(), field.max()
    bins = np.clip(
        np.round((field - lo) / (hi - lo) * (n - 1)), 0, n - 1
    ).astype(int)
    lat, lon = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return relation_to_cube(
        np.column_stack([lat.ravel(), lon.ravel(), bins.ravel()]), (n, n, n)
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos drill: degradable queries against a fault-injected store.

    Exercises the whole resilience stack — fault-injecting device
    middleware, retries, per-shard circuit breakers, and graceful
    degradation — with storage built from one declarative
    :class:`~repro.storage.device.StorageSpec` (``--shards`` /
    ``--cache-blocks`` / ``--fault-rate``).  Always exits 0: a degraded
    answer with an error bound is the designed behaviour, not a
    failure.
    """
    from repro import AIMS
    from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
    from repro.obs import counter as obs_counter
    from repro.query.rangesum import RangeSumQuery
    from repro.storage.device import StorageSpec

    rate = args.fault_rate
    if not 0.0 <= rate <= 0.5:
        print(f"--fault-rate must be in [0, 0.5], got {rate}",
              file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.queries < 1:
        print(f"--queries must be >= 1, got {args.queries}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    n = 16
    cube = _atmospheric_count_cube(rng, n)
    plan = FaultPlan(
        seed=args.seed,
        read_error_rate=rate,
        torn_rate=rate / 2,
        latency_spike_rate=rate / 2,
        latency_spike_s=0.001,
    )
    breaker = CircuitBreaker(failure_threshold=5, recovery_timeout_s=0.05)
    engine = AIMS().populate(
        "chaos", cube,
        storage=StorageSpec(
            shards=args.shards,
            cache_blocks=args.cache_blocks,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.0005),
            breaker=breaker,
        ),
    )
    windows = [
        RangeSumQuery.count([(s, min(s + 5, n - 1)), (0, n - 1), (2, 13)])
        for s in range(0, n, 2)
    ]
    queries = list(itertools.islice(itertools.cycle(windows), args.queries))
    degraded = 0
    for query in queries:
        outcome = engine.evaluate_degradable(query, deadline_s=args.deadline)
        if outcome.degraded:
            degraded += 1
    print(f"chaos drill: {len(queries)} degradable queries at "
          f"{rate:.0%} read-fault rate")
    print(f"  storage spec    : {args.shards} shard(s), "
          f"{args.cache_blocks} cache blocks")
    print(f"  degraded        : {degraded}/{len(queries)} "
          f"(each with a guaranteed error bound)")
    print(f"  retries/recovers: {obs_counter('retry.retries').value:.0f}/"
          f"{obs_counter('retry.recoveries').value:.0f}")
    print(f"  injected faults : "
          f"{obs_counter('faults.injected.read_errors').value:.0f} read, "
          f"{obs_counter('faults.injected.torn_blocks').value:.0f} torn, "
          f"{obs_counter('faults.injected.latency_spikes').value:.0f} slow")
    breakers = engine.store.breakers or [breaker]
    snap = breakers[0].snapshot()
    trips = sum(b.snapshot()["trips"] for b in breakers)
    rejections = sum(b.snapshot()["rejections"] for b in breakers)
    state = next(
        (b.state for b in breakers if b.state != "closed"), snap["state"]
    )
    print(f"  breaker         : {state} "
          f"(trips={trips:.0f}, rejections={rejections:.0f})")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Murder-tier drill: routing, hot-tenant quotas, replica failover.

    Stands up the multi-tenant cluster tier through the
    ``AIMS.cluster()`` facade — stateless frontend, consistent-hash
    ring, data-owning backends — populates tenant datasets, then
    demonstrates the tier's properties in order: deterministic routing,
    per-tenant quota isolation under a flooding tenant, and a
    kill-primary drill in which replica promotion restores
    bitwise-exact answers.  Exits 1 only if a post-failover answer
    diverges from the healthy baseline.
    """
    from repro import AIMS, AIMSConfig
    from repro.cluster import QuotaExceeded, TenantQuota, namespace_key
    from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
    from repro.obs import counter as obs_counter
    from repro.obs import gauge as obs_gauge
    from repro.query.rangesum import RangeSumQuery
    from repro.storage.device import StorageSpec

    if args.backends < 1:
        print(f"--backends must be >= 1, got {args.backends}",
              file=sys.stderr)
        return 2
    if args.quota < 1:
        print(f"--quota must be >= 1, got {args.quota}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    n = 16
    cube = _atmospheric_count_cube(rng, n)
    queries = [
        RangeSumQuery.count([(s, min(s + 5, n - 1)), (0, n - 1), (2, 13)])
        for s in range(0, n, 2)
    ]
    tenants = [("acme", "gloves"), ("acme", "asl"),
               ("globex", "atmosphere"), ("initech", "sessions")]
    system = AIMS(AIMSConfig(shards=2, replicas=1))
    with system.cluster(backends=args.backends) as frontend:
        for tenant, dataset in tenants:
            frontend.populate(tenant, dataset, cube)
        keys = [namespace_key(t, d) for t, d in tenants]
        spread = frontend.ring.spread(keys)
        print(f"cluster drill: {args.backends} backend(s), "
              f"{len(tenants)} namespaces, vnodes={frontend.ring.vnodes}")
        for node_id in frontend.backends():
            owned = [k for k in keys if frontend.ring.lookup(k) == node_id]
            print(f"  {node_id:<12}: owns "
                  f"{', '.join(owned) if owned else '(nothing yet)'}")

        # Mixed workload: every namespace answers its exact queries.
        futures = [
            ((tenant, dataset), frontend.submit_exact(tenant, dataset, q))
            for tenant, dataset in tenants for q in queries
        ]
        baseline: dict[tuple, list] = {}
        for key, future in futures:
            baseline.setdefault(key, []).append(future.result())
        print(f"  workload      : {len(futures)} exact queries answered "
              f"across {len(tenants)} namespaces")

        # Hot tenant: flood one tenant past its quota.  Its excess is
        # rejected at the frontend; bystanders keep being served.
        frontend.populate("noisy", "flood", cube)
        frontend.set_quota("noisy", TenantQuota(max_inflight=args.quota))
        rejected = 0
        flood = []
        for _ in range(args.flood):
            try:
                flood.append(
                    frontend.submit_batch("noisy", "flood", queries)
                )
            except QuotaExceeded:
                rejected += 1
        bystanders = [
            frontend.submit_exact("acme", "gloves", q) for q in queries
        ]
        for future in bystanders:
            future.result()
        for future in flood:
            future.result()
        print(f"  hot tenant    : {rejected}/{args.flood} flood batches "
              f"rejected at quota {args.quota}; {len(bystanders)} "
              f"bystander queries still answered")

        # Kill-primary drill: every primary read in the drill namespace
        # fails, breakers trip, replicas are promoted — and the answers
        # stay bitwise-exact (failover, not degradation).
        drill_spec = StorageSpec(
            shards=2,
            replicas=1,
            cache_blocks=4,
            fault_plan=FaultPlan(seed=args.seed, read_error_rate=1.0),
            fault_replicas=(0,),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                     budget_s=0.0),
            breaker=CircuitBreaker(failure_threshold=3,
                                   recovery_timeout_s=60.0),
        )
        frontend.populate("ops", "drill", cube, storage=drill_spec)
        before = obs_counter("replica.promotions").value
        drilled = [
            frontend.submit_exact("ops", "drill", q).result()
            for q in queries
        ]
        promotions = obs_counter("replica.promotions").value - before
        exact = drilled == baseline[("acme", "gloves")]
        print(f"  kill-primary  : {promotions:.0f} promotion(s); "
              f"answers bitwise-exact: {exact}")
        print(f"  replica       : "
              f"failovers={obs_counter('replica.failovers').value:.0f}, "
              f"member read failures="
              f"{obs_counter('replica.member_read_failures').value:.0f}, "
              f"stale members="
              f"{obs_gauge('replica.stale_members').value:.0f}")
        print(f"  frontend      : "
              f"routed={obs_counter('cluster.frontend.routed').value:.0f}, "
              f"quota rejected="
              f"{obs_counter('cluster.frontend.quota_rejected').value:.0f}")
        return 0 if exact else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a representative end-to-end pass and print the metrics report."""
    from repro import AIMS, AIMSConfig
    from repro.obs import render_text, to_json
    from repro.query.rangesum import RangeSumQuery
    from repro.sensors.glove import CyberGloveSimulator

    rng = np.random.default_rng(args.seed)
    system = AIMS(AIMSConfig(pool_capacity=32))

    # Acquisition: capture and sample a short glove session.
    sim = CyberGloveSimulator()
    session = sim.capture(2.0, rng)
    system.acquire(session, sim.rate_hz)

    # Storage + off-line query: populate a cube, run exact, progressive
    # and derived-aggregate queries through the caching device layer.
    n = 16
    cube = _atmospheric_count_cube(rng, n)
    engine = system.populate("atm", cube)
    query = RangeSumQuery.count([(2, 13), (1, 12), (4, 15)])
    engine.evaluate_exact(query)
    for est in engine.evaluate_progressive(query):
        if est.error_bound < 1.0:
            break
    agg = system.aggregates("atm")
    agg.average([(0, n - 1), (0, n - 1), (0, n - 1)], dim=2)
    agg.variance([(0, n - 1), (0, n - 1), (0, n - 1)], dim=2)

    # Concurrent query service: a group-by burst through the thread-pool
    # front end, so the service, shared-scan, translation-cache and
    # pool-occupancy series all appear in the report.
    from repro.query.service import QueryService

    cells = [
        RangeSumQuery.count([(s, min(s + 3, n - 1)), (0, n - 1), (2, 13)])
        for s in range(0, n, 4)
    ]
    with QueryService(engine, workers=2, queue_depth=len(cells)) as service:
        service.run_exact(cells)
        service.run_exact(cells)  # repeat pass: translation-cache hits

    # Online query: recognize a short synthesized sign stream.
    from repro.online.recognizer import RecognizerConfig
    from repro.sensors.asl import ASL_VOCABULARY, synthesize_session, synthesize_sign

    specs = list(ASL_VOCABULARY[:2])
    system.train_vocabulary(
        {s.name: [synthesize_sign(s, rng).frames for _ in range(3)]
         for s in specs}
    )
    frames, segments = synthesize_session(specs, rng, gap_duration=0.6)
    recognizer = system.recognizer(
        rest_frames=frames[: segments[0].start],
        config=RecognizerConfig(window=50, compare_every=10,
                                declare_threshold=0.4, decline_steps=3),
    )
    # Feed the session through the stream substrate so ingest counters
    # tick exactly as they would for a live device.
    from repro.streams.source import ArraySource

    recognizer.process(ArraySource(frames, rate_hz=60.0))

    # Resilience: a short drill against a 4-shard fault-injected device
    # stack declared as one StorageSpec, so the faults.* / retry.* /
    # breaker.* series appear in the report (see docs/OPERATIONS.md for
    # how to read them under load).
    from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
    from repro.storage.device import StorageSpec

    breaker = CircuitBreaker(failure_threshold=5, recovery_timeout_s=0.05)
    faulty = system.populate(
        "atm-faulty", cube,
        storage=StorageSpec(
            shards=4,
            cache_blocks=16,
            fault_plan=FaultPlan(seed=args.seed, read_error_rate=0.05,
                                 torn_rate=0.02),
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.0005),
            breaker=breaker,
        ),
    )
    for s in range(0, n, 4):
        faulty.evaluate_degradable(
            RangeSumQuery.count([(s, min(s + 3, n - 1)), (0, n - 1), (2, 13)])
        )

    registry = system.metrics()
    if args.json:
        print(to_json(registry))
    else:
        print("metrics after one acquire -> populate -> query -> "
              "recognize -> chaos pass:")
        print(render_text(registry))
        # Per-shard breakers: report the first clone, with fleet totals.
        breakers = faulty.store.breakers or [breaker]
        snap = breakers[0].snapshot()
        print(f"breaker {snap['name']!r}: {snap['state']} "
              f"(streak={snap['consecutive_failures']}, "
              f"trips={snap['trips']}, rejections={snap['rejections']}) "
              f"[{len(breakers)} shard breaker(s)]")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run every architectural-invariant check (``repro.lint``) once.

    One parse of ``ROOT/src/repro`` feeds the nine per-file rules and
    the five whole-program analyzers.  Exits 0 when every check is
    clean (or explicitly suppressed with a justification comment), 1
    when any error-severity finding remains, 2 when ``ROOT`` has no
    source tree — the contract the lint CI job gates on.
    """
    import json

    from repro.lint import LintError, checks, lint_tree

    try:
        findings = lint_tree(args.root).findings
    except LintError as exc:
        print(f"aims lint: {exc}", file=sys.stderr)
        return 2
    catalogue = checks()
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if args.format == "json":
        print(json.dumps({
            "schema": "repro.lint/v1",
            "rules": [
                {"id": c.rule_id, "severity": c.severity,
                 "description": c.description}
                for c in catalogue
            ],
            "findings": [f.as_dict() for f in findings],
            "summary": {"errors": errors, "warnings": warnings},
        }, indent=2))
    else:
        for finding in findings:
            print(finding.format())
        print(f"aims lint: {errors} error(s), {warnings} warning(s) "
              f"({len(catalogue)} rule(s))")
    return 1 if errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Aggregate the benchmark result tables into one report."""
    from pathlib import Path

    results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    if not results.is_dir():
        results = Path.cwd() / "benchmarks" / "results"
    if not results.is_dir():
        print("no benchmarks/results directory; run "
              "`pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 1
    files = sorted(results.glob("*.txt"))
    if not files:
        print("benchmarks/results is empty; run the benchmarks first",
              file=sys.stderr)
        return 1
    for path in files:
        print(f"==== {path.stem} ====")
        print(path.read_text().rstrip())
        print()
    print(f"({len(files)} experiment tables; see EXPERIMENTS.md for the "
          f"paper-vs-measured comparison)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Record → replay drill: prove a session replays bitwise-exactly.

    Records one live ingest session (points, weights, timestamps,
    sampler-rate changes) through a
    :class:`~repro.streams.replay.SessionRecorder`, replays it into a
    twin engine seeded with the same starting coefficients, and
    compares the stored coefficients byte for byte.  Exits non-zero if
    fidelity is broken.  ``--out`` saves the record as JSON lines
    (the ``repro.replay/v1`` framing in ``docs/REPLAY.md``).
    """
    from repro.acquisition.streaming import StreamingAdaptiveSampler
    from repro.query.propolyne import ProPolyneEngine
    from repro.storage.device import StorageSpec
    from repro.streams.ingest import IngestService
    from repro.streams.replay import SessionRecorder, SessionReplayer

    if args.points < 1:
        print(f"--points must be >= 1, got {args.points}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    n, width = 32, 8
    cube = rng.poisson(2.0, size=(n, width)).astype(float)
    spec = StorageSpec(shards=2, cache_blocks=16)

    def build() -> ProPolyneEngine:
        return ProPolyneEngine(
            cube, max_degree=1, block_size=4, storage=spec
        )

    engine = build()
    engine.enable_versioning()
    recorder = SessionRecorder()
    sampler = StreamingAdaptiveSampler(width=width, rate_hz=50.0)

    def to_point(sample) -> tuple[int, int]:
        return (int(abs(sample.value)) % n, sample.sensor_id % width)

    with IngestService(
        engine, queue_capacity=1024, commit_batch=64, recorder=recorder
    ) as service:
        session = service.open_session("replay-drill", sampler, to_point)
        tick = 0
        while session.submitted < args.points:
            session.push(
                np.sin(np.arange(width) * 0.3 + tick * 0.2) * 20.0
            )
            tick += 1
        service.flush()
        session.close()
    record = recorder.record("replay-drill")

    speed = None if args.speed <= 0 else args.speed
    twin = build()
    replayed = SessionReplayer(record, speed=speed).replay_into(twin)
    identical = (
        engine.to_coefficients().tobytes() == twin.to_coefficients().tobytes()
    )
    print(f"replay drill: session {record.session_id!r}")
    print(f"  recorded        : {record.points} points, "
          f"{record.rate_changes} rate change(s), "
          f"{record.duration_s:.2f} s of stream time")
    print(f"  start epoch     : {record.start_epoch} "
          f"(live engine now at epoch {engine.epoch})")
    print(f"  replayed        : {replayed} points at "
          f"{'full speed' if speed is None else f'x{speed:g}'}")
    print(f"  fidelity        : "
          f"{'bitwise-identical' if identical else 'MISMATCH'}")
    if args.out:
        path = record.save(args.out)
        print(f"  record saved    : {path}")
    return 0 if identical else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN + audit provenance for a demo range-sum.

    Prints the classic indented query plan, evaluates the query
    degradably (live, or pinned to ``--as-of EPOCH`` on the versioned
    demo engine), and prints the attached
    :class:`~repro.query.explain.QueryProvenance` audit record as JSON
    (``repro.provenance/v2``).
    """
    from repro.query.explain import attach_provenance, explain, format_plan
    from repro.query.propolyne import ProPolyneEngine
    from repro.query.rangesum import RangeSumQuery
    from repro.storage.device import StorageSpec

    rng = np.random.default_rng(args.seed)
    n = 16
    cube = _atmospheric_count_cube(rng, n)
    engine = ProPolyneEngine(
        cube, max_degree=1, block_size=4,
        storage=StorageSpec(shards=2, cache_blocks=16),
    )
    engine.enable_versioning()
    # A little history, so --as-of has epochs to travel to.
    for _ in range(args.epochs):
        points = [tuple(p) for p in rng.integers(0, n, size=(32, 3))]
        engine.inserter.insert_batch(points)
    query = RangeSumQuery.count([(2, 11), (0, n - 1), (3, 12)])
    plan = explain(engine, query)
    print(format_plan(plan))
    as_of = args.as_of
    if as_of is not None and not 0 <= as_of <= engine.epoch:
        print(f"--as-of must be in [0, {engine.epoch}], got {as_of}",
              file=sys.stderr)
        return 2
    outcome = engine.evaluate_degradable(query, as_of=as_of)
    outcome = attach_provenance(engine, query, outcome, as_of=as_of)
    label = "live" if as_of is None else f"as of epoch {as_of}"
    print(f"\nanswer ({label}, engine at epoch {engine.epoch}): "
          f"{outcome.value:.6g}"
          + (" [degraded]" if outcome.degraded else " [exact]"))
    print("provenance:")
    print(outcome.provenance.to_json(indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIMS: An Immersidata Management System — reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=2003,
                        help="random seed (default 2003)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show the system inventory")

    glove = sub.add_parser("glove", help="simulate and sample a glove session")
    glove.add_argument("--duration", type=float, default=10.0)
    glove.add_argument(
        "--sampler", default="adaptive",
        choices=("fixed", "modified_fixed", "grouped", "adaptive"),
    )

    adhd = sub.add_parser("adhd", help="run the ADHD SVM study")
    adhd.add_argument("--subjects", type=int, default=20,
                      help="subjects per group")
    adhd.add_argument("--duration", type=float, default=30.0)

    asl = sub.add_parser("asl", help="recognize a synthesized sign stream")
    asl.add_argument("--signs", nargs="+",
                     default=["GREEN", "RED", "HELLO"])

    sub.add_parser("olap", help="progressive OLAP demo on atmospheric data")
    sub.add_parser("report", help="print all benchmark result tables")

    chaos = sub.add_parser(
        "chaos",
        help="resilience drill: degradable queries under injected faults",
    )
    chaos.add_argument("--fault-rate", type=float, default=0.05,
                       dest="fault_rate",
                       help="injected read-error rate (default 0.05)")
    chaos.add_argument("--queries", type=int, default=16,
                       help="degradable queries to run (default 16)")
    chaos.add_argument("--deadline", type=float, default=None,
                       help="per-query deadline in seconds (default none)")
    chaos.add_argument("--shards", type=int, default=1,
                       help="storage shards for the drill (default 1)")
    # Under the drill cube's 27 blocks, so reads keep reaching the
    # fault-injecting layer below the cache.
    chaos.add_argument("--cache-blocks", type=int, default=8,
                       dest="cache_blocks",
                       help="block-cache capacity (default 8)")

    cluster = sub.add_parser(
        "cluster",
        help="multi-tenant cluster drill: routing, quotas, failover",
    )
    cluster.add_argument("--backends", type=int, default=2,
                         help="data-owning backend nodes (default 2)")
    cluster.add_argument("--quota", type=int, default=4,
                         help="flooding tenant's in-flight quota "
                              "(default 4)")
    cluster.add_argument("--flood", type=int, default=32,
                         help="batches the flooding tenant submits "
                              "(default 32)")

    replay = sub.add_parser(
        "replay",
        help="record a live ingest session and replay it bitwise-exactly",
    )
    replay.add_argument("--points", type=int, default=400,
                        help="points to record before replaying "
                             "(default 400)")
    replay.add_argument("--speed", type=float, default=0.0,
                        help="replay speed multiplier; <= 0 means "
                             "as fast as possible (default)")
    replay.add_argument("--out", default=None,
                        help="save the session record (JSON lines) "
                             "to this path")

    explain = sub.add_parser(
        "explain",
        help="print a query plan and its audit provenance record",
    )
    explain.add_argument("--as-of", type=int, default=None, dest="as_of",
                         help="evaluate pinned to this storage epoch "
                              "(default: live)")
    explain.add_argument("--epochs", type=int, default=3,
                         help="history depth to build for the demo "
                              "engine (default 3)")

    stats = sub.add_parser(
        "stats",
        help="run an end-to-end pass and print the observability report",
    )
    stats.add_argument("--json", action="store_true",
                       help="emit the metrics registry as JSON")

    lint = sub.add_parser(
        "lint",
        help="check the architectural invariants (repro.lint)",
    )
    lint.add_argument("root", nargs="?", default=None, metavar="ROOT",
                      help="repository root whose src/repro is linted "
                           "(default: the one this package lives in)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", help="report format (default text)")
    return parser


_HANDLERS = {
    "info": _cmd_info,
    "glove": _cmd_glove,
    "adhd": _cmd_adhd,
    "asl": _cmd_asl,
    "olap": _cmd_olap,
    "chaos": _cmd_chaos,
    "cluster": _cmd_cluster,
    "replay": _cmd_replay,
    "explain": _cmd_explain,
    "report": _cmd_report,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
