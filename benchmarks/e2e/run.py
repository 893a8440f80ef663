"""AIMS end-to-end benchmark: one command, four workloads, two regimes.

    python3 benchmarks/e2e/run.py --seed 2003 [--workload NAME]
        [--trace 0|1] [--seconds N] [--repeats N] [--out PATH]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Builds each workload from the seed, runs it against the public API,
checks every answer, and prints every metric by name with its unit; the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` yields the per-layer
metrics.  Without ``--workload`` all four run; without ``--trace`` both
forms run.  Metric names, units and regression bounds live in the
repo's ``BENCHMARK.json``; README.md beside this file explains them.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("scalar_cpu", "drilldown_io", "ingest_cpu", "cluster_mixed_io")
REPETITIONS = 4


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the measured child ----------------------------------------------------


def _delta(after: dict, before: dict) -> dict:
    return {
        key: (
            [a - b for a, b in zip(value, before[key])]
            if isinstance(value, list) else value - before[key]
        )
        for key, value in after.items()
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# This box runs the same code up to twice as slow for seconds or minutes
# at a time (a busy neighbour; CPU time stretches with wall time), which
# no estimator inside a run sees through.  So the machine's speed is
# probed between operations with a fixed kernel, and the CPU seconds of
# every timing are rescaled to the speed at which that kernel takes
# REFERENCE_KERNEL_S; seconds spent waiting on the simulated device are
# left as they are.  Over twelve minutes of scalar_cpu this took the
# spread of 16 s medians from 12% to 3%.
REFERENCE_KERNEL_S = 25e-6
PROBE_KERNELS = 40


def _kernel() -> None:
    # Tuples into a dict: what the scalar path spends its time on.
    d = {}
    for i in range(200):
        d[(i, i + 1)] = i * 0.5


def slowdown() -> float:
    """How many times slower than reference speed the machine runs now:
    the median of ``PROBE_KERNELS`` kernel timings (1 ms in all; a
    pre-emption or a thread switch spoils a few of them, not the
    median) over ``REFERENCE_KERNEL_S``."""
    timings = []
    for _ in range(PROBE_KERNELS):
        started = time.perf_counter()
        _kernel()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) / REFERENCE_KERNEL_S


def at_reference(wall: float, cpu: float, slow: float) -> float:
    """Factor that takes an interval of ``wall`` seconds, ``cpu`` of
    them on the CPU at ``slow`` times the reference duration, to what
    it would have lasted at reference speed."""
    share = min(1.0, cpu / wall)
    return 1.0 - share * (1.0 - 1.0 / slow)


def measure(scenario, seconds: float, op, tracer=None) -> dict:
    """Run numbered ops for ``seconds`` (and at least the exact-count
    window), closed loop, one client.  ``latencies_ms`` and ``busy_s``
    (the ops' own time, probes left out) are at reference speed."""
    latencies_ms, raw_latencies_ms, slowdowns = [], [], []
    items = attempted = failed = window_items = 0
    busy = cpu = 0.0
    window = None
    with scenario.background(tracer) as side:
        before = scenario.counters()
        started = time.perf_counter()
        deadline = started + seconds
        i = 0
        slow_after = slowdown()
        while i < scenario.window_ops or time.perf_counter() < deadline:
            op_started, cpu_started = time.perf_counter(), time.process_time()
            result = op(i)
            op_wall = time.perf_counter() - op_started
            op_cpu = time.process_time() - cpu_started
            slow_before, slow_after = slow_after, slowdown()
            slow = (slow_before + slow_after) / 2
            factor = at_reference(op_wall, op_cpu, slow)
            slowdowns.append(slow)
            raw_latencies_ms.append(result.latency_s * 1e3)
            latencies_ms.append(result.latency_s * 1e3 * factor)
            busy += op_wall * factor
            cpu += op_cpu
            items += result.items
            attempted += result.attempted
            failed += result.failed
            i += 1
            if i == scenario.window_ops:
                window = _delta(scenario.counters(), before)
                window_items = items
        wall = time.perf_counter() - started
        total = _delta(scenario.counters(), before)
    return {
        "latencies_ms": latencies_ms, "raw_latencies_ms": raw_latencies_ms,
        "ops": i, "items": items,
        "attempted": attempted + side.get("attempted", 0),
        "failed": failed + side.get("failed", 0),
        "wall_s": wall, "busy_s": busy, "cpu_s": cpu, "window": window,
        "window_items": window_items, "total": total, "side": side,
        "slowdown": statistics.median(slowdowns),
    }


def _percentile(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]


def end_to_end(scenario, phase: dict) -> dict:
    """One repetition's end-to-end metrics."""
    lat = phase["latencies_ms"]
    return {
        "setup_s": scenario.setup_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": _percentile(lat, scenario.tail_percentile),
        "throughput_per_s": phase["items"] / phase["busy_s"],
        "device_reads_per_item":
            phase["window"]["disk_reads"] / phase["window_items"],
    }


def per_layer(scenario, plain: dict, layered: dict, tracer) -> dict:
    """Layer metrics: times are medians of the layered phase's spans,
    as measured (``machine.slowdown`` says how far from reference speed
    that was); counts are public-counter deltas over the plain phase's
    window."""
    def span_ms(name: str) -> float:
        durations = tracer.durations_ms(name)
        return statistics.median(durations) if durations else 0.0

    def mean(values: list[float]) -> float:
        head = values[:scenario.window_ops]
        return sum(head) / len(head) if head else 0.0

    w, total = plain["window"], plain["total"]
    shard_reads = w["shard_reads"]
    side = plain["side"]
    lags = side.get("lags_ms") or (
        plain["raw_latencies_ms"] if scenario.item == "point" else []
    )
    points = side.get("points", plain["items"] if scenario.item == "point" else 0)
    out = {
        "wavelets.transform_ms": span_ms("wavelets.transform"),
        "wavelets.transcache_hit_ratio": _ratio(
            w["transcache_hits"], w["transcache_hits"] + w["transcache_misses"]
        ),
        "query.translate_ms": span_ms("query.translate"),
        "query.entries_per_query": mean(scenario.entries_per_query),
        "query.reduce_ms": span_ms("query.reduce"),
        "query.batch_eval_ms": span_ms("query.batch_eval"),
        "query.service_overhead_ms": 0.0,
        "query.scan_shared_ratio": _ratio(w["scan_shared"], w["scan_fetches"]),
        "query.insert_batch_ms": span_ms("query.insert_batch"),
        "query.insert_blocks_touched": _ratio(
            total["insert_blocks_touched"], total["insert_batches"]
        ),
        "storage.plan_ms": span_ms("storage.plan"),
        "storage.fetch_ms": span_ms("storage.fetch"),
        "storage.device_read_ms": span_ms("storage.device_read"),
        "storage.blocks_per_query": mean(scenario.blocks_per_query),
        "storage.store_blocks_ms": span_ms("storage.store_blocks"),
        "storage.disk_reads": w["disk_reads"],
        "storage.disk_writes": w["disk_writes"],
        "storage.cache_hit_ratio": _ratio(
            w["cache_hits"], w["cache_hits"] + w["cache_misses"]
        ),
        "storage.cache_evictions": w["cache_evictions"],
        "storage.shard_skew": _ratio(
            max(shard_reads, default=0) * len(shard_reads), sum(shard_reads)
        ),
        "acquisition.sampler_push_us": span_ms("acquisition.sampler_push") * 1e3,
        "acquisition.kept_ratio": _ratio(
            w["samples_recorded"], w["samples_seen"]
        ),
        "streams.push_ms": span_ms("streams.push"),
        "streams.flush_ms": span_ms("streams.flush"),
        "streams.queue_depth_max": scenario.queue_depth_max,
        "streams.commit_batch_mean": _ratio(
            total["committed_points"], total["commits"]
        ),
        "streams.failed_batches": total["failed_batch_points"],
        "streams.points_per_s": points / plain["wall_s"],
        "streams.visible_lag_p50_ms": statistics.median(lags) if lags else 0.0,
        "cluster.route_us": span_ms("cluster.route") * 1e3,
        "cluster.hop_ms": 0.0,
        "cluster.rejected": 0,
        "cluster.ring_max_share": 0.0,
        "cpu_ms_per_item": plain["cpu_s"] * 1e3 / plain["items"],
        "trace_overhead_ratio": (
            (layered["busy_s"] / layered["ops"]) / (plain["busy_s"] / plain["ops"])
        ),
        "machine.slowdown": layered["slowdown"],
    }
    out.update(scenario.derived(plain["raw_latencies_ms"], tracer))
    return out


@contextmanager
def built(inputs):
    """One build of the workload: set up (timed into ``setup_s``), hand
    over, tear down.  The inputs are shared; what the build adds dies
    with its copy, so two builds are never in memory at once."""
    scenario = copy.copy(inputs)
    gc.collect()
    slow = slowdown()
    started, cpu_started = time.perf_counter(), time.process_time()
    scenario.setup()
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    slow = (slow + slowdown()) / 2
    scenario.setup_s = wall * at_reference(wall, cpu, slow)
    try:
        yield scenario
    finally:
        scenario.close()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(inputs, seconds: float) -> dict:
    """``REPETITIONS`` repetitions of set-up, ``seconds / REPETITIONS`` of
    measurement, tear-down; every timing and count is the median over
    them, so a stretch of seconds in which the machine runs slow spoils
    at most one of the four."""
    phases, setups, per_rep = [], [], []
    peak_rss_mb = None
    for _ in range(REPETITIONS):
        with built(inputs) as scenario:
            phase = measure(scenario, seconds / REPETITIONS, scenario.op)
        phases.append(phase)
        setups.append(scenario.setup_s)
        per_rep.append(end_to_end(scenario, phase))
        # One build's footprint: how later builds reuse the heap the
        # earlier ones freed varies from run to run.
        peak_rss_mb = peak_rss_mb or _peak_rss_mb()
    values = {
        key: statistics.median(rep[key] for rep in per_rep)
        for key in per_rep[0]
    }
    values["peak_rss_mb"] = peak_rss_mb
    exact = {key: phases[0]["window"][key] for key in inputs.exact_counters}
    return {"values": values, "phases": phases, "setup_s": setups, "exact": exact}


def run_traced(inputs, seconds: float, tracer) -> dict:
    """One set-up; half the time on the plain ops (counters clean of
    probe traffic, and the base for the tracing overhead), half on the
    layered ops."""
    with built(inputs) as scenario:
        plain = measure(scenario, seconds / 2, scenario.op)
        layered = measure(
            scenario, seconds / 2,
            lambda i: scenario.layered_op(i, tracer), tracer,
        )
        values = per_layer(scenario, plain, layered, tracer)
    window = scenario.window_ops
    exact = {key: plain["window"][key] for key in inputs.exact_counters}
    exact["entries"] = sum(scenario.entries_per_query[:window])
    exact["blocks"] = sum(scenario.blocks_per_query[:window])
    return {
        "values": values, "phases": [plain, layered],
        "setup_s": [scenario.setup_s], "exact": exact,
        "trace_self_ms": tracer.self_ms(),
    }


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in this process and describe the run."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs import MetricsRegistry, use_registry
    from scenarios import SCENARIOS
    from tracing import Tracer

    # A fresh registry, so counters read here are this run's alone.
    with use_registry(MetricsRegistry()):
        inputs = SCENARIOS[name](seed)
        if trace:
            tracer = Tracer()
            run = run_traced(inputs, seconds, tracer)
            tracer.write(
                HERE / "out" / f"trace-{name}.json",
                {"workload": name, "seed": seed},
            )
        else:
            run = run_untraced(inputs, seconds)
    phases = run["phases"]
    failed = sum(p["failed"] for p in phases)
    metrics = _spec()["per_layer" if trace else "end_to_end"]
    return {
        "workload": name, "trace": trace, "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in phases), "failed": failed,
        "metrics": {
            m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]}
            for m in metrics
        },
        "samples": {
            "ops": [p["ops"] for p in phases],
            "items": [p["items"] for p in phases],
            "wall_s": [p["wall_s"] for p in phases],
            "cpu_s": [p["cpu_s"] for p in phases],
            "setup_s": run["setup_s"],
            "slowdown": [p["slowdown"] for p in phases],
            "raw_latency_p50_ms": [
                statistics.median(p["raw_latencies_ms"]) for p in phases
            ],
            "tail_percentile": inputs.tail_percentile,
        },
        "exact": {**run["exact"], "window_ops": inputs.window_ops},
        "trace_self_ms": run.get("trace_self_ms"),
        "config": {
            **inputs.config, "item": inputs.item,
            "latency_of": inputs.latency_of,
        },
    }


# -- the parent: isolation, report, envelope -------------------------------


def run_isolated(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in its own child process (fresh caches and registry,
    its own peak RSS), under a wall-clock ceiling that fails the run
    rather than letting it hang."""
    ceiling = 60 + 4 * seconds
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=ceiling, check=False,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {ceiling:.0f} s") from None
    if done.returncode != 0:
        raise SystemExit(f"{name}: child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def report(record: dict) -> None:
    samples = record["samples"]
    form = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(
        f"\n== {record['workload']} · {form} · ops {samples['ops']} · "
        f"items {samples['items']} ({record['config']['item']}) · "
        f"tail = p{samples['tail_percentile']} · "
        f"failed {record['failed']}/{record['attempted']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.4f} {metric['unit']}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'failed_ops_ratio':<32} {ratio:>14.4f} ratio")
    print(
        "  as measured, per phase: latency p50, ms "
        f"{[round(v, 2) for v in samples['raw_latency_p50_ms']]} at "
        f"{[round(v, 2) for v in samples['slowdown']]} x the reference "
        "kernel's time"
    )
    if record["trace_self_ms"]:
        shares = ", ".join(
            f"{name} {ms:.0f}" for name, ms in sorted(
                record["trace_self_ms"].items(), key=lambda kv: -kv[1]
            )
        )
        print(f"  self time by span, ms: {shares}")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            # An exported checkout is no repository: do not look above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def envelope(records: list[dict], seed: int, seconds: float) -> dict:
    import numpy
    import scipy

    return {
        "benchmark": "aims-e2e", "version": 1, "git_sha": _git_sha(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "seed": seed, "seconds": seconds,
        "repetitions": REPETITIONS, "runs": records,
    }


# -- comparing two envelopes -----------------------------------------------


def _values(result: dict, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"] for run in result["runs"]
        if run["workload"] == workload and metric in run["metrics"]
    ]


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """Print each (end-to-end metric, workload) pair's verdict, B against
    A, by the bounds in BENCHMARK.json; check the exact counts agree."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    metrics = _spec()["end_to_end"]
    for workload in WORKLOADS:
        for metric in metrics:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma * (1 if metric["better"] == "lower" else -1)
            apart = max(va) < min(vb) or max(vb) < min(va)
            if min(len(va), len(vb)) < 3:
                # Too few runs to know the spread: a difference beyond
                # the bound is not yet a verdict.
                unresolved = abs(worse) > metric["bound"]
            else:
                unresolved = (
                    max(_spread(va), _spread(vb)) > metric["bound"] and not apart
                )
            if unresolved:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                bad += 1
            elif worse < -metric["bound"]:
                verdict = "improved"
            else:
                verdict = "within-bound"
            print(
                f"{workload:<18} {metric['name']:<24} {ma:>12.4f} -> "
                f"{mb:>12.4f} {metric['unit']:<6} {worse:+7.1%} worse "
                f"(bound {metric['bound']:.0%})  {verdict}"
            )
    if a["seed"] == b["seed"]:
        def exact(result):
            return {
                (r["workload"], r["trace"]): r["exact"] for r in result["runs"]
            }

        ea, eb = exact(a), exact(b)
        for key in sorted(ea.keys() & eb.keys()):
            same = ea[key] == eb[key]
            bad += not same
            print(
                f"exact counts {key[0]} trace={key[1]}: "
                f"{'equal' if same else f'DIFFER {ea[key]} != {eb[key]}'}"
            )
    return 1 if bad else 0


# -- entry point -----------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "result.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds or _spec()["run_seconds"]
    if args.child:
        print(json.dumps(run_child(args.workload, args.seed, seconds, args.trace)))
        return 0

    names = [args.workload] if args.workload else WORKLOADS
    traces = [args.trace] if args.trace is not None else (0, 1)
    records = []
    for name in names:
        for trace in traces:
            for _ in range(args.repeats):
                records.append(run_isolated(name, args.seed, seconds, trace))
                report(records[-1])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(envelope(records, args.seed, seconds), indent=1))
    several = len(records) > 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{name}" if several else name): metric
            for r in records for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
