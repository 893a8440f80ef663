"""The cross-path oracle: ProPolyne's promises (§3.3), computed.

One :class:`Workload` runs through every registered runner, one per
execution path, on each storage stack, and :func:`check` computes the
contract from the answers: only :func:`contract_digest` and what
``observe`` reads off the engine (an I/O table) are left to record.  A
new path registers a :func:`runner`; an entry point that needs none is
in ``EXEMPT`` with its reason.  No runtime module imports this one.
"""

import hashlib
import math
from contextlib import ExitStack
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.core.aims import AIMS, AIMSConfig
from repro.core.errors import AIMSError
from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import evaluate_on_cube
from repro.query.service import QueryService

__all__ = ["BOUND_SLACK_ULPS", "EXEMPT", "RUNNERS", "Runner", "StackRun",
           "Workload", "check", "contract_digest", "run_stack", "runner"]

#: A progressive estimate adds one ``dot`` per block, the exact answer is
#: one ``dot`` of all entries, so they round apart: on the block-codes
#: workload 22 of 3 207 engine steps exceeded the bound, by ≤ 9 ulps.
BOUND_SLACK_ULPS = 16

#: Degree-1 SUMs, and blocks small enough that every axis spans several.
_ENGINE = {"max_degree": 1, "block_size": 3}

#: Entry points that need no runner of their own, and why.
EXEMPT = {
    "ProPolyneEngine.evaluate_approximate":
        "a prefix of the evaluate_progressive run (its last step in budget)",
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
    per query, on the data of ``epoch`` (1 once the insert is applied)."""

    kind: str  # exact | degradable | progressive | batch_progressive | insert
    fn: Callable
    entry_points: tuple
    epoch: int


#: Every runner by phase name, in the order a stack runs them.
RUNNERS: dict[str, Runner] = {}


def runner(phase: str, kind: str, fn: Callable, *entry_points: str,
           epoch: int = 0) -> None:
    """Register ``fn`` as ``phase``, driving ``entry_points``."""
    RUNNERS[phase] = Runner(kind, fn, entry_points, epoch)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the contract types it
        return exc


def _each(answer, n: int | None = None):
    """A runner asking ``answer(run, query)`` of each of ``queries[:n]``."""
    return lambda run: [_attempt(answer, run, q) for q in run.queries[:n]]


def _batch(answers, n: int | None = None):
    """A runner asking ``answers(run, queries[:n])`` once."""
    def fn(run):
        out = _attempt(answers, run, run.queries[:n])
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


@dataclass
class StackRun:
    """A stack's answers and ``observe(engine, answers)`` per phase."""

    faulted: bool
    answers: dict
    io: dict


def run_stack(workload: Workload, spec: Callable,
              observe: Callable = lambda engine, answers: None) -> StackRun:
    """Every runner on an engine from ``spec()`` (a factory: fault plans
    are stateful); the cluster runners share one ``AIMS.cluster()``."""
    engine = ProPolyneEngine(workload.cube, storage=spec(), **_ENGINE)
    engine.enable_versioning()
    out = StackRun(spec().fault_plan is not None, {},
                   {"populate": observe(engine, [])})
    with ExitStack() as stack:
        stack.callback(engine.store.close)
        cluster = stack.enter_context(AIMS(AIMSConfig(**_ENGINE)).cluster(
            backends=1, workers=1, storage_factory=spec))
        cluster.populate("oracle", "cube", workload.cube)
        run = SimpleNamespace(
            workload=workload, queries=workload.queries, engine=engine,
            service=stack.enter_context(QueryService(engine, workers=1)),
            cluster=cluster)
        for phase, path in RUNNERS.items():
            out.answers[phase] = path.fn(run)
            out.io[phase] = observe(engine, out.answers[phase])
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


def check(workload: Workload, runs: dict, name: str) -> None:
    """Assert the contract on stack ``name``.  The reference (first
    fault-free stack) agrees with ``evaluate_on_cube`` to 1e-9.  Exact
    answers have its bits; inserts touch as many coefficients; a
    degradable answer is ``degraded`` iff a block was skipped or the
    deadline hit, reads or skips its whole schedule unless cut, and is
    within its bound (exact when not degraded); a progressive run never
    grows its bound, holds it (up to ``BOUND_SLACK_ULPS``) and is the
    reference's first run of its kind and epoch, bit for bit.  Only a
    faulted stack may fail, and only with ``AIMSError``."""
    ref = next(run for run in runs.values() if not run.faulted)
    run = runs[name]
    exact = {0: ref.answers["exact"], 1: ref.answers["exact_1"]}
    # A query's block set does not depend on the data, nor on the epoch.
    blocks = [len(steps) for steps in ref.answers["progressive"]]
    after = workload.cube.copy()
    np.add.at(after, tuple(workload.points.T), workload.weights)
    for epoch, cube in ((0, workload.cube), (1, after)):
        assert all(math.isclose(x, evaluate_on_cube(cube, q), rel_tol=1e-9,
                                abs_tol=1e-9)
                   for x, q in zip(exact[epoch], workload.queries)), epoch
    first = {}  # (kind, epoch) -> the reference's first runner's answers
    for phase, path in RUNNERS.items():
        want = first.setdefault((path.kind, path.epoch), ref.answers[phase])
        for i, answer in enumerate(run.answers[phase]):
            where, x = f"{name}/{phase}/query {i}", exact[path.epoch][i]
            if isinstance(answer, Exception):
                assert run.faulted, f"{where}: {answer!r} on a fault-free stack"
                assert isinstance(answer, AIMSError), f"{where}: {answer!r}"
            elif path.kind == "insert":
                assert answer == want[i], where
            elif path.kind == "exact":
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
