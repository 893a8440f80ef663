"""Batch evaluation of multiple related range-sums with shared I/O.

§3.3.1: "we begin by studying OLAP queries that require the simultaneous
evaluation of multiple related range aggregates ... [e.g.] SQL group-by
queries, drill-down queries.  In [23] we have developed query evaluation
algorithms which share I/O maximally and retrieve the most important data
first."

The batch evaluator takes several range-sum queries (group-by cells,
drill-downs, or the component sums of a statistical aggregate), merges
their sparse wavelet transforms block-wise, fetches every block **once**,
ordered by the *combined* importance, and maintains one running estimate
and guaranteed error bound per query.  Experiment E12 measures the I/O it
saves over evaluating each query independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import QueryError
from repro.core.reduce import segmented_dot
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import counter as obs_counter
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.query.propolyne import ProPolyneEngine, QueryOutcome, _Fold
from repro.query.rangesum import RangeSumQuery
from repro.storage.scheduler import schedule_blocks

__all__ = ["BatchEstimate", "BatchEvaluator", "GroupByResult", "group_by"]


@dataclass(frozen=True)
class BatchEstimate:
    """Progressive state of a whole batch after one more block."""

    estimates: tuple[float, ...]
    error_bounds: tuple[float, ...]
    blocks_read: int


@dataclass(frozen=True)
class GroupByResult:
    """One evaluated group-by: cell labels, values, and the shared-I/O
    saving the batch plan achieved."""

    labels: tuple[tuple[int, int], ...]
    values: tuple[float, ...]
    blocks_read: int
    blocks_independent: int

    @property
    def io_saving(self) -> float:
        """Fraction of block reads the shared plan avoided."""
        if self.blocks_independent == 0:
            return 0.0
        return 1.0 - self.blocks_read / self.blocks_independent

    def as_dict(self) -> dict[tuple[int, int], float]:
        """Cell label -> value mapping."""
        return dict(zip(self.labels, self.values))


def group_by(
    engine: ProPolyneEngine,
    dim: int,
    group_width: int,
    other_ranges: dict[int, tuple[int, int]] | None = None,
    degrees: dict[int, int] | None = None,
) -> GroupByResult:
    """SQL-style GROUP BY over one dimension, evaluated as one shared-I/O
    batch (§3.3.1's "queries act as linear maps" instance).

    Args:
        engine: A populated ProPolyne engine.
        dim: The grouping dimension.
        group_width: Cell width along ``dim`` (the dimension is split into
            consecutive cells of this width).
        other_ranges: Optional range constraints on the other dimensions
            (default: full domain).
        degrees: Optional monomial measure, as in
            :meth:`RangeSumQuery.weighted` (default COUNT).

    Returns:
        A :class:`GroupByResult` with one value per cell.
    """
    ndim = len(engine.original_shape)
    if not 0 <= dim < ndim:
        raise QueryError(f"group-by dimension {dim} out of range")
    if group_width < 1:
        raise QueryError(f"group width must be >= 1, got {group_width}")
    other_ranges = other_ranges or {}
    bad = [d for d in other_ranges if not 0 <= d < ndim or d == dim]
    if bad:
        raise QueryError(f"bad constrained dimensions: {bad}")

    size = engine.original_shape[dim]
    labels = []
    queries = []
    for start in range(0, size, group_width):
        stop = min(size - 1, start + group_width - 1)
        labels.append((start, stop))
        ranges = []
        for d in range(ndim):
            if d == dim:
                ranges.append((start, stop))
            else:
                ranges.append(
                    other_ranges.get(d, (0, engine.original_shape[d] - 1))
                )
        queries.append(RangeSumQuery.weighted(ranges, degrees or {}))

    evaluator = BatchEvaluator(engine)
    with span("query.batch.exact"):
        # One located stack: the independent count and the evaluation.
        stack = evaluator._schedule(queries)
        before = engine.store.io_snapshot()
        values = evaluator._exact(queries, stack)
    return GroupByResult(
        labels=tuple(labels),
        values=tuple(values),
        blocks_read=engine.store.io_since(before).reads,
        blocks_independent=evaluator._independent(stack[0], stack[3]),
    )


class BatchEvaluator:
    """Shared-I/O, vectorized evaluation of a list of queries on one
    engine.

    The exact path is the tensor-domain batch extension of
    :meth:`repro.wavelets.lazy.SparseWaveletVector.dot`: every query's
    sparse transform is stacked and located (block code, slot) in one pass,
    all queries' blocks are fetched in **one** coalesced bulk read (a
    single ``read_many`` per shard group), the payloads are packed
    into one buffer, one gather takes the whole batch's coefficients,
    and each query reduces over its own contiguous segment
    (:func:`~repro.core.reduce.segmented_dot`; DESIGN.md, "One
    reduction order") — so every batched answer is *bitwise-identical*
    to :meth:`~repro.query.propolyne.ProPolyneEngine.evaluate_exact`.

    Metrics: ``query.batch.batches`` / ``query.batch.queries`` /
    ``query.batch.degraded`` counters and the ``query.batch.size`` /
    ``query.batch.blocks`` histograms.
    """

    def __init__(self, engine: ProPolyneEngine) -> None:
        self._engine = engine

    # -- vectorized plumbing ---------------------------------------------

    def _schedule(self, queries: list[RangeSumQuery]):
        """Translate, CSR-stack and schedule a batch, through the engine's
        located kernel (:meth:`ProPolyneEngine.locate_batch`).

        Segment ``i`` of the stack keeps query ``i``'s translation
        order, so its dot against the gathered payloads reduces in
        exactly the order the engine's scalar kernel uses.

        Returns:
            ``(codes, slots, values, offsets, schedule)`` — each stacked
            entry's block code and in-block slot, the query values, the
            CSR segment offsets, and the batch's one
            :class:`~repro.storage.scheduler.BlockSchedule` (each block
            once, by combined error-bound mass).
        """
        if not queries:
            raise QueryError("batch evaluation needs at least one query")
        values, codes, slots, offsets = self._engine.locate_batch(queries)
        schedule = schedule_blocks(
            values, codes, self._engine.store.allocation,
            self._engine._block_norms,
        )
        return codes, slots, values, offsets, schedule

    @staticmethod
    def _count_batch(queries: list, schedule) -> None:
        """The per-batch metrics of both exact entry points."""
        obs_counter("query.batch.batches").inc()
        obs_counter("query.batch.queries").inc(len(queries))
        obs_histogram(
            "query.batch.size", DEFAULT_COUNT_BUCKETS
        ).observe(len(queries))
        obs_histogram(
            "query.batch.blocks", DEFAULT_COUNT_BUCKETS
        ).observe(len(schedule))

    def evaluate_exact(self, queries: list[RangeSumQuery]) -> list[float]:
        """Exact answers for every query, reading each block once.

        One coalesced bulk fetch, one gather, one segment-dot per query
        — each answer bitwise-identical to the engine's sequential
        :meth:`~repro.query.propolyne.ProPolyneEngine.evaluate_exact`.
        """
        with span("query.batch.exact"):
            return self._exact(queries, self._schedule(queries))

    def _exact(self, queries: list[RangeSumQuery], stack) -> list[float]:
        """:meth:`evaluate_exact` of the batch's :meth:`_schedule`."""
        codes, slots, values, offsets, schedule = stack
        self._count_batch(queries, schedule)
        store = self._engine.store
        buffer, base = store.allocation.pack(store.read_many(schedule.codes))
        return segmented_dot(values, buffer[base[codes] + slots], offsets).tolist()

    def evaluate_degradable(
        self, queries: list[RangeSumQuery]
    ) -> list[QueryOutcome]:
        """Batch evaluation that degrades per query instead of failing.

        Blocks are fetched one at a time in combined-importance order
        (isolating failures, like the engine's degradable path); a block
        whose read raises
        :class:`~repro.core.errors.StorageUnavailable` is skipped and
        its Cauchy–Schwarz mass stays in the error bound of *every
        query touching it*.  A query untouched by skipped blocks gets
        its exact answer, bitwise the engine's; a batch of one is
        :meth:`~repro.query.propolyne.ProPolyneEngine.evaluate_degradable`
        bit for bit.

        Returns:
            One :class:`~repro.query.propolyne.QueryOutcome` per query.
        """
        with span("query.batch.degradable"):
            fold = _Fold(self._engine.store, *self._schedule(queries))
            self._count_batch(queries, fold.schedule)
            outcomes = fold.degrade()
            degraded = sum(outcome.degraded for outcome in outcomes)
            if degraded:
                obs_counter("query.batch.degraded").inc(degraded)
            return outcomes

    def evaluate_progressive(
        self, queries: list[RangeSumQuery], objective: str = "l2"
    ) -> Iterator[BatchEstimate]:
        """One :class:`BatchEstimate` per fetched block.

        Every query's bound is its own per-block Cauchy–Schwarz remainder,
        so early steps already pin down queries whose mass lives on
        important (shared) blocks.

        Args:
            queries: The related range-sums.
            objective: ``"l2"`` fetches blocks by combined importance
                (drives the *average* bound down fastest); ``"max"``
                greedily fetches the block that most helps the currently
                worst-bounded query — §3.3.1's "for other applications it
                may be more important to ensure that any large differences
                ... are captured early", i.e. a worst-case error measure.
        """
        if objective not in ("l2", "max"):
            raise QueryError(
                f"unknown batch objective {objective!r}; use 'l2' or 'max'"
            )
        fold = _Fold(self._engine.store, *self._schedule(queries))
        for step in range(len(fold.schedule)):
            at = step
            if objective == "max":
                # Serve the worst-bounded query first: fetch the unread
                # block carrying its largest bound mass (the schedule's
                # next block when it has none left).
                worst = int(np.argmax(fold.bound))
                at = int(np.argmax(
                    np.where(fold.status, -1.0, fold.masses[worst])
                ))
            fold.fetch(at)
            fold.advance()
            states = [fold.state(q) for q in range(len(queries))]
            yield BatchEstimate(
                estimates=tuple(state.estimate for state in states),
                error_bounds=tuple(state.error_bound for state in states),
                blocks_read=step + 1,
            )

    def shared_block_count(self, queries: list[RangeSumQuery]) -> int:
        """Blocks a shared evaluation reads (planning only, no I/O)."""
        return len(self._schedule(queries)[-1])

    def independent_block_count(self, queries: list[RangeSumQuery]) -> int:
        """Total blocks independent evaluations would read."""
        _, codes, _, offsets = self._engine.locate_batch(queries)
        return self._independent(codes, offsets)

    def _independent(self, codes, offsets) -> int:
        """Distinct blocks of each CSR segment of a located stack, summed:
        the ``(segment, code)`` cells of one presence table, counted."""
        segments = len(offsets) - 1
        n_codes = self._engine.store.allocation.n_codes
        present = np.zeros((segments, n_codes), dtype=bool)
        present[np.repeat(np.arange(segments), np.diff(offsets)), codes] = True
        return int(np.count_nonzero(present))
