"""The cross-path oracle: ProPolyne's promises (§3.3), computed.

One :class:`Workload` runs through every registered runner, one per
execution path, on each storage stack, and :func:`check` computes the
contract from the answers: only :func:`contract_digest`,
:func:`write_digest` (what every way a point enters stores) and what
``observe`` reads off the engine (an I/O table) are left to record.  A
new path registers a :func:`runner`; an entry point that needs none is
in ``EXEMPT`` with its reason.  :func:`check_layouts` computes that a
faulted workload meets the same fate on two layouts of one fault plan.
No runtime module imports this one.
"""

import hashlib
import math
from collections import Counter
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.core.aims import AIMS, AIMSConfig
from repro.core.errors import AIMSError
from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine, QueryOutcome
from repro.query.rangesum import evaluate_on_cube
from repro.query.service import QueryService
from repro.storage.device import StorageSpec
from repro.streams.ingest import IngestService
from repro.streams.replay import ReplayEvent, SessionRecord, SessionReplayer
from repro.streams.sample import Sample

__all__ = ["BOUND_SLACK_ULPS", "EXEMPT", "RUNNERS", "Runner", "StackRun",
           "Workload", "attempt", "check", "check_layouts", "contract_digest",
           "decisions", "engine", "run_stack", "runner", "stored_digest",
           "write_batch", "write_digest"]

#: A progressive estimate adds one ``dot`` per block, the exact answer is
#: one ``dot`` of all entries, so they round apart: on the block-codes
#: workload 22 of 3 207 engine steps exceeded the bound, by ≤ 9 ulps.
BOUND_SLACK_ULPS = 16

#: Degree-1 SUMs, and blocks small enough that every axis spans several.
_ENGINE = {"max_degree": 1, "block_size": 3}

#: Entry points that need no runner of their own, and why.
EXEMPT = {
    "ClusterFrontend.submit_degradable":
        "routed as submit_exact is, then QueryService.submit_degradable",
    "BackendNode.submit_degradable":
        "routed as submit_exact is, then QueryService.submit_degradable",
}


@dataclass(frozen=True)
class Workload:
    """The cube, the queries and the insert batch every runner sees."""

    cube: np.ndarray
    queries: tuple
    points: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class Runner:
    """One execution path: ``fn(run)`` gives one answer (or its error)
    per query, on the data of ``epoch`` (1 once the insert is applied);
    a ``write`` runner's gives the engine it appended to (epoch 2)."""

    kind: str  # exact | degradable | (batch_)progressive | insert | write
    fn: Callable
    entry_points: tuple
    epoch: int


#: Every runner by phase name, in the order a stack runs them.
RUNNERS: dict[str, Runner] = {}


def runner(phase: str, kind: str, fn: Callable, *entry_points: str,
           epoch: int = 0) -> None:
    """Register ``fn`` as ``phase``, driving ``entry_points``."""
    RUNNERS[phase] = Runner(kind, fn, entry_points, epoch)


def attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the contract types it
        return exc


def _each(answer, n: int | None = None):
    """A runner asking ``answer(run, query)`` of each of ``queries[:n]``."""
    return lambda run: [attempt(answer, run, q) for q in run.queries[:n]]


def _batch(answers, n: int | None = None):
    """A runner asking ``answers(run, queries[:n])`` once."""
    def fn(run):
        out = attempt(answers, run, run.queries[:n])
        return out if isinstance(out, list) else [out] * len(run.queries[:n])
    return fn


def _steps(estimates) -> list:
    return [(s.estimate, s.error_bound, s.blocks_read) for s in estimates]


def _progressive(run, query) -> list:
    return _steps(run.engine.evaluate_progressive(query))


def _batch_steps(run, queries) -> list:
    steps = list(BatchEvaluator(run.engine).evaluate_progressive(queries))
    return [[(s.estimates[q], s.error_bounds[q], s.blocks_read) for s in steps]
            for q in range(len(queries))]


def write_batch(workload: Workload) -> tuple[list, list]:
    """What every write runner appends: the insert batch's first half,
    then its first eighth again, weights negated (duplicates, deletions)."""
    n = len(workload.points)
    points = np.concatenate((workload.points[:n // 2], workload.points[:n // 8]))
    weights = np.concatenate((workload.weights[:n // 2],
                              -workload.weights[:n // 8]))
    return list(map(tuple, points.tolist())), weights.tolist()


def _record(points: list, weights: list) -> SessionRecord:
    """The write batch as a session's record, read back from JSON lines."""
    events = [ReplayEvent("point", float(i), point, weight)
              for i, (point, weight) in enumerate(zip(points, weights))]
    return SessionRecord.from_json(SessionRecord("oracle", events=events)
                                   .to_json())


def _fresh(write):
    """A write runner: ``write(run, engine)`` on a fresh engine.  A commit
    failing past the storage stack is in the fates and ends the write."""
    def fn(run) -> ProPolyneEngine:
        engine = run.fresh()
        with suppress(AIMSError):
            write(run, engine)
        return engine
    return fn


def _ingest(commit_batch: int, submit):
    """Through a live service: ``submit(run, service)``, then a flush."""
    def write(run, engine) -> None:
        with IngestService(engine, commit_batch=commit_batch) as service:
            submit(run, service)
            service.flush()
    return write


def _cluster_session(run) -> ProPolyneEngine:
    """One push of the whole batch: a sample of value ``i`` is point ``i``."""
    (points, weights), cluster = run.batch, run.cluster
    engine = run.fresh(cluster.populate("oracle", "written", run.workload.cube))
    feed = SimpleNamespace(push=lambda n: [Sample(i, 0, i) for i in range(n)])
    session = cluster.open_session("oracle", "written", "oracle", feed,
                                   lambda s: points[s.value],
                                   lambda s: weights[s.value])
    session.push(len(points))
    session.service.flush()
    return engine


_E, _B, _S = "ProPolyneEngine.", "BatchEvaluator.", "QueryService."
runner("exact", "exact", _each(lambda r, q: r.engine.evaluate_exact(q)),
       _E + "evaluate_exact")
runner("progressive", "progressive", _each(_progressive),
       _E + "evaluate_progressive")
runner("degradable", "degradable", _each(
    lambda r, q: r.engine.evaluate_degradable(q)), _E + "evaluate_degradable")
runner("batch_exact", "exact", _batch(lambda r, qs: BatchEvaluator(
    r.engine).evaluate_exact(qs)), _B + "evaluate_exact")
runner("batch_degradable", "degradable", _batch(lambda r, qs: BatchEvaluator(
    r.engine).evaluate_degradable(qs)), _B + "evaluate_degradable")
runner("batch_progressive", "batch_progressive", _batch(_batch_steps, 8),
       _B + "evaluate_progressive")
runner("service", "exact", _each(lambda r, q: r.service.submit_exact(
    q, block=True).result()), _S + "submit_exact")
runner("insert", "insert", _batch(lambda r, _: [r.engine.inserter.insert_batch(
    r.workload.points, r.workload.weights)], 1))
runner("as_of_0", "exact", _each(lambda r, q: r.engine.evaluate_exact(
    q, as_of=0)), _E + "evaluate_exact")
runner("as_of_1", "exact", _each(lambda r, q: r.engine.evaluate_exact(
    q, as_of=1)), _E + "evaluate_exact", epoch=1)
runner("exact_1", "exact", RUNNERS["exact"].fn, epoch=1)
# 8 queries: a served progressive step is a thread hand-off.
runner("progressive_1", "progressive", _each(_progressive, 8), epoch=1)
runner("service_progressive", "progressive", _each(lambda r, q: _steps(
    r.service.submit_progressive(q, block=True)), 8),
    _S + "submit_progressive", epoch=1)
runner("service_degradable", "degradable", _each(
    lambda r, q: r.service.submit_degradable(q, block=True).result()),
    _S + "submit_degradable", epoch=1)
runner("service_batch", "exact", _batch(lambda r, qs: r.service.submit_batch(
    qs, block=True).result()), _S + "submit_batch", epoch=1)
runner("cluster", "exact", _each(lambda r, q: r.cluster.submit_exact(
    "oracle", "cube", q, block=True).result()),
    "ClusterFrontend.submit_exact", "BackendNode.submit_exact")
runner("cluster_batch", "exact", _batch(lambda r, qs: r.cluster.submit_batch(
    "oracle", "cube", qs, block=True).result()),
    "ClusterFrontend.submit_batch", "BackendNode.submit_batch")
# The write runners, each on an engine of its own, after the reads.
runner("insert_batch", "write", _fresh(lambda r, e: e.inserter.insert_batch(
    *r.batch)), "BatchInserter.insert_batch", "BatchInserter.commit", epoch=2)
runner("insert_each", "write", _fresh(lambda r, e: [
    e.insert(point, weight) for point, weight in zip(*r.batch)]),
    _E + "insert", epoch=2)
for _n in (1, 7, 256):
    runner(f"ingest_{_n}", "write", _fresh(_ingest(_n, lambda r, s: (
        s.submit_many(*r.batch)))), "IngestService.submit_many", epoch=2)
runner("replay", "write", _fresh(lambda r, e: SessionReplayer(
    r.record).replay_into(e, commit_batch=37)),
    "SessionReplayer.replay_into", epoch=2)
runner("replay_through", "write", _fresh(_ingest(256, lambda r, s: (
    SessionReplayer(r.record).replay_through(s)))),
    "SessionReplayer.replay_through", "IngestService.submit", epoch=2)
runner("cluster_session", "write", _cluster_session,
       "ClusterFrontend.open_session", "BackendNode.open_session",
       "IngestService.open_session", epoch=2)


def engine(workload: Workload, spec: Callable) -> ProPolyneEngine:
    """A fresh engine over the workload's cube on storage ``spec()``."""
    return ProPolyneEngine(workload.cube, storage=spec(), **_ENGINE)


def decisions(engine) -> Counter:
    """The multiset of ``(code, k, kind)`` fault decisions the engine's
    storage made (empty without a fault plan)."""
    return Counter(d for layer in engine.store._built.faulty
                   for d in layer.history())


def stored_digest(engine) -> str:
    """blake2b over what an append leaves: every block's payload bytes,
    then the block norms, in code order, and ``data_norm`` (the
    progressive bound's inputs).  Read with fault injection off."""
    store, codes = engine.store, sorted(engine.store.block_norms)
    store.set_injecting(False)
    group = store.read_many(codes)
    store.set_injecting(True)
    payloads = dict(zip(group.codes.tolist(), group.payloads))
    digest = hashlib.blake2b(b"".join(map(payloads.get, codes)), digest_size=32)
    digest.update(np.array([store.block_norms[code] for code in codes]))
    digest.update(store.data_norm.hex().encode())
    return digest.hexdigest()


def _watch(engine, twin, fates: list) -> None:
    """Give every commit of ``engine`` to ``twin`` (fault-free) too, and
    put each that fails past the storage stack in ``fates`` by what
    ``engine`` then stores: what ``twin`` holds without it (``"pre"``),
    with it (``"post"``) or ``"neither"``."""
    commit = engine.inserter.commit  # every write path's one way in

    def watched(points, weights=None):
        try:
            commit(points, weights)
        except AIMSError:
            stored, fate = stored_digest(engine), "pre"
            if stored != stored_digest(twin):
                twin.inserter.commit(points, weights)
                fate = "post" if stored == stored_digest(twin) else "neither"
            fates.append(fate)
            raise
        twin.inserter.commit(points, weights)

    engine.inserter.commit = watched


@dataclass
class StackRun:
    """A stack's answers per phase; ``observe(engine, answers)`` and leaf
    writes per read phase; per write runner, its :func:`stored_digest`
    and, on a faulted stack, the fates of its failed commits and what its
    twin stores (``landed``); and the read engine's fault
    :func:`decisions`."""

    faulted: bool
    answers: dict
    io: dict
    writes: dict
    digests: dict = field(default_factory=dict)
    fates: dict = field(default_factory=dict)
    landed: dict = field(default_factory=dict)
    decisions: Counter | None = None


def run_stack(workload: Workload, spec: Callable,
              observe: Callable = lambda engine, answers: None) -> StackRun:
    """Every runner on storage from ``spec()`` (a factory: breakers are
    stateful): the read runners on one engine, ``observe``\\ d after each
    phase, the cluster runners on one ``AIMS.cluster()``, and each write
    runner on an engine of its own, on a faulted stack watched by a
    fault-free twin.  A faulted stack runs the runners its faults reach:
    the read runners where reads fault (a commit there fails in its read,
    before it writes, as the insert phase shows), the write runners where
    writes do."""
    plan = spec().fault_plan
    reads = plan is None or plan.read_error_rate + plan.torn_rate > 0
    writes = plan is None or plan.write_error_rate > 0
    run_engine = engine(workload, spec)
    run_engine.enable_versioning()
    out = StackRun(plan is not None, {}, {"populate": observe(run_engine, [])},
                   {"populate": run_engine.store.io_snapshot().writes})
    with ExitStack() as stack:
        def fresh(written=None) -> ProPolyneEngine:
            """A fresh engine (or ``written``) for the phase's writes, on
            a faulted stack :func:`_watch`\\ ed by a fault-free twin."""
            written = written or engine(workload, spec)
            stack.callback(written.store.close)
            if out.faulted:
                twins[phase] = engine(workload, StorageSpec)
                _watch(written, twins[phase], out.fates.setdefault(phase, []))
            return written

        stack.callback(run_engine.store.close)
        cluster = stack.enter_context(AIMS(AIMSConfig(**_ENGINE)).cluster(
            backends=1, workers=1, storage_factory=spec))
        cluster.populate("oracle", "cube", workload.cube)
        batch, twins = write_batch(workload), {}
        run = SimpleNamespace(
            workload=workload, queries=workload.queries, engine=run_engine,
            service=stack.enter_context(QueryService(run_engine, workers=1)),
            cluster=cluster, batch=batch, record=_record(*batch),
            fresh=fresh)
        for phase, path in RUNNERS.items():
            if path.kind != "write" and reads:
                out.answers[phase] = path.fn(run)
                out.io[phase] = observe(run_engine, out.answers[phase])
                out.writes[phase] = run_engine.store.io_snapshot().writes
            elif path.kind == "write" and writes:
                written = path.fn(run)
                out.digests[phase] = stored_digest(written)
                out.answers[phase] = RUNNERS["exact"].fn(SimpleNamespace(
                    engine=written, queries=workload.queries))
                if out.faulted:
                    out.landed[phase] = stored_digest(twins[phase])
    out.decisions = decisions(run_engine)
    return out


def _bits(value):
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def _within(value: float, exact: float, bound: float) -> bool:
    return abs(value - exact) <= bound + BOUND_SLACK_ULPS * math.ulp(exact)


def contract_digest(run: StackRun) -> str:
    """sha256 of the exact answers before and after the insert."""
    bits = _bits(run.answers["exact"] + run.answers["exact_1"])
    return hashlib.sha256(" ".join(bits).encode()).hexdigest()


def write_digest(run: StackRun) -> str:
    """The :func:`stored_digest` the first write runner left."""
    return next(iter(run.digests.values()))


def check(workload: Workload, runs: dict, name: str) -> None:
    """Assert the contract on stack ``name``.  The reference (first
    fault-free stack) agrees with ``evaluate_on_cube`` to 1e-9 before the
    insert, after it and after the write batch.  Exact answers have its
    bits; inserts touch as many coefficients; a degradable answer is
    ``degraded`` iff a block was skipped or the deadline hit, reads or
    skips its whole schedule unless cut, and is within its bound (exact
    when not degraded); a progressive run never grows its bound, holds it
    (up to ``BOUND_SLACK_ULPS``) and is the reference's first run of its
    kind and epoch, bit for bit.  A write runner stores the reference's
    :func:`write_digest` or, on a faulted stack, what its twin holds,
    unless a commit was left half stored ("neither", ROADMAP item 9(a)).
    Only a faulted stack may fail, and only with ``AIMSError``; when its
    insert failed, no leaf write moved and epoch 1 answers as epoch 0."""
    ref = next(run for run in runs.values() if not run.faulted)
    run = runs[name]
    exact = [ref.answers["exact"], ref.answers["exact_1"],
             ref.answers[next(iter(ref.digests))]]
    # A query's block set does not depend on the data, nor on the epoch.
    blocks = [len(steps) for steps in ref.answers["progressive"]]
    cubes = [workload.cube]
    for points, weights in ((workload.points, workload.weights),
                            write_batch(workload)):
        cubes.append(workload.cube.copy())
        np.add.at(cubes[-1], tuple(np.array(points).T), weights)
    for epoch, cube in enumerate(cubes):
        assert all(math.isclose(x, evaluate_on_cube(cube, q), rel_tol=1e-9,
                                abs_tol=1e-9)
                   for x, q in zip(exact[epoch], workload.queries)), epoch
    epoch_of = [0, 1, 2]
    if isinstance(run.answers.get("insert", [None])[0], AIMSError):
        phases = list(run.writes)
        before = phases[phases.index("insert") - 1]
        assert run.writes["insert"] == run.writes[before], f"{name}/insert"
        epoch_of[1] = 0
    first = {}  # (kind, epoch) -> the reference's first runner's answers
    for phase, path in RUNNERS.items():
        if phase not in run.answers:  # a runner no fault of the stack reaches
            continue
        if path.kind == "write":
            if "neither" in run.fates.get(phase, ()):
                continue  # what landed is unknown: ROADMAP item 9(a)
            assert run.digests[phase] == run.landed.get(
                phase, write_digest(ref)), f"{name}/{phase}: stored digest"
            if run.digests[phase] != write_digest(ref):
                continue  # a commit was lost: no epoch's answers
        epoch = epoch_of[path.epoch]
        want = first.setdefault((path.kind, epoch), ref.answers[phase])
        for i, answer in enumerate(run.answers[phase]):
            where, x = f"{name}/{phase}/query {i}", exact[epoch][i]
            if isinstance(answer, Exception):
                assert run.faulted, f"{where}: {answer!r} on a fault-free stack"
                assert isinstance(answer, AIMSError), f"{where}: {answer!r}"
            elif path.kind == "insert":
                assert answer == want[i], where
            elif path.kind in ("exact", "write"):
                assert answer.hex() == x.hex(), where
            elif path.kind == "degradable":
                assert answer.degraded == (answer.blocks_skipped > 0 or (
                    answer.reason == "deadline")), where
                assert run.faulted or not answer.degraded, where
                assert _within(answer.value, x, answer.error_bound), where
                assert answer.reason == "deadline" or blocks[i] == (
                    answer.blocks_read + answer.blocks_skipped), where
                assert answer.degraded or (answer.value.hex(), answer.reason,
                                           answer.error_bound) == (
                    x.hex(), None, 0.0), where
            else:  # a progressive run, one step per block read
                bounds = [bound for _, bound, _ in answer]
                assert all(b <= a for a, b in zip(bounds, bounds[1:])), where
                assert all(_within(e, x, b) for e, b, _ in answer), where
                assert _bits(answer) == _bits(want[i]), where


def _fate(answer):
    """What two layouts must agree on: bits of every float, the type of
    every error, and a degradable outcome without its provenance (which
    names shards)."""
    if isinstance(answer, (list, tuple)):
        return [_fate(a) for a in answer]
    if isinstance(answer, Exception):
        return type(answer)
    if isinstance(answer, QueryOutcome):
        return (answer.value.hex(), answer.degraded, answer.error_bound.hex(),
                answer.blocks_read, answer.blocks_skipped, answer.reason)
    return _bits(answer)


def check_layouts(a: StackRun, b: StackRun, where: str) -> None:
    """Assert two layouts of one faulted workload met the same fate:
    the same ``(code, k, kind)`` decisions, and every runner's answers
    equal by :func:`_fate`."""
    assert a.decisions == b.decisions, f"{where}: fault decisions differ"
    for phase in a.answers:
        assert _fate(a.answers[phase]) == _fate(b.answers[phase]), (
            f"{where}/{phase}"
        )
