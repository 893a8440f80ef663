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

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import QueryError, StorageUnavailable
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import counter as obs_counter
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.query.propolyne import ProPolyneEngine, QueryOutcome
from repro.query.rangesum import RangeSumQuery
from repro.storage.disk import BlockGroup
from repro.storage.scheduler import schedule_blocks
from repro.wavelets.lazy import segmented_dot

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
    independent = evaluator.independent_block_count(queries)
    before = engine.store.io_snapshot()
    values = evaluator.evaluate_exact(queries)
    reads = engine.store.io_since(before).reads
    return GroupByResult(
        labels=tuple(labels),
        values=tuple(values),
        blocks_read=reads,
        blocks_independent=independent,
    )


class BatchEvaluator:
    """Shared-I/O, vectorized evaluation of a list of queries on one
    engine.

    The exact path is the tensor-domain batch extension of
    :meth:`repro.wavelets.lazy.SparseWaveletVector.dot`: every query's
    sparse transform is stacked and located (block code, slot) in one pass,
    all queries' blocks are fetched in **one** coalesced bulk read (a
    single ``read_many`` per shard group), the payloads are packed
    into one buffer, one ``np.take`` gathers the whole batch's
    coefficients, and each query reduces over its own contiguous
    segment with the same ``np.dot`` kernel
    :func:`~repro.query.propolyne.sparse_inner_product` uses — so every
    batched answer is *bitwise-identical* to
    :meth:`~repro.query.propolyne.ProPolyneEngine.evaluate_exact`.

    Metrics: ``query.batch.batches`` / ``query.batch.queries`` /
    ``query.batch.degraded`` counters and the ``query.batch.size`` /
    ``query.batch.blocks`` histograms.
    """

    def __init__(self, engine: ProPolyneEngine) -> None:
        self._engine = engine

    # -- vectorized plumbing ---------------------------------------------

    def _schedule(self, queries: list[RangeSumQuery]):
        """Translate, CSR-stack and schedule a batch.

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
        located = [self._engine.query_located(q) for q in queries]
        offsets = np.zeros(len(located) + 1, dtype=np.intp)
        np.cumsum([len(values) for values, _, _ in located], out=offsets[1:])
        values, codes, slots = map(np.concatenate, zip(*located))
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
            codes, slots, values, offsets, schedule = self._schedule(queries)
            self._count_batch(queries, schedule)
            store = self._engine.store
            buffer, base = store.allocation.pack(
                store.read_many(schedule.codes)
            )
            answers = segmented_dot(
                base[codes] + slots, values, offsets, buffer
            )
            return [float(v) for v in answers]

    def evaluate_degradable(
        self, queries: list[RangeSumQuery]
    ) -> list[QueryOutcome]:
        """Batch evaluation that degrades per query instead of failing.

        Blocks are fetched one at a time in combined-importance order
        (isolating failures, like the engine's degradable path); a block
        whose read raises
        :class:`~repro.core.errors.StorageUnavailable` is skipped and
        its Cauchy–Schwarz mass stays in the error bound of *every
        query touching it*.  Queries untouched by skipped blocks are
        answered through the same vectorized kernel as
        :meth:`evaluate_exact` — bitwise-identical to the engine's
        exact path.

        Returns:
            One :class:`~repro.query.propolyne.QueryOutcome` per query.
        """
        with span("query.batch.degradable"):
            codes, slots, values, offsets, schedule = self._schedule(queries)
            self._count_batch(queries, schedule)
            store = self._engine.store
            allocation = store.allocation
            groups = []
            for code in schedule.codes.tolist():
                try:
                    groups.append(store.read_many([code]))
                except StorageUnavailable:
                    pass
            group = BlockGroup.join(groups)
            read = np.isin(schedule.codes, group.codes)
            buffer, base = allocation.pack(group)
            pos = base[codes] + slots
            available = read[schedule.ranks]
            touched, norms = schedule.per_query(offsets)
            sizes = allocation.block_len(schedule.codes).tolist()
            outcomes = []
            for qi in range(len(queries)):
                lost = np.flatnonzero(touched[qi] & ~read).tolist()
                n_read = int(np.count_nonzero(touched[qi])) - len(lost)
                mine = slice(int(offsets[qi]), int(offsets[qi + 1]))
                if not lost:
                    value = float(np.dot(values[mine], buffer[pos[mine]]))
                    outcomes.append(
                        QueryOutcome(value, False, 0.0, 0.0, n_read, None)
                    )
                    continue
                # Partial answer over surviving blocks, plus the skipped
                # blocks' guaranteed bound and one-sigma forecast.
                kept = available[mine]
                estimate = float(
                    np.dot(values[mine][kept], buffer[pos[mine][kept]])
                )
                bound = 0.0
                variance = 0.0
                for b in lost:
                    mass = float(norms[qi, b] * schedule.data_norms[b])
                    bound += mass
                    variance += mass**2 / sizes[b]
                obs_counter("query.batch.degraded").inc()
                outcomes.append(
                    QueryOutcome(
                        value=estimate,
                        degraded=True,
                        error_bound=bound,
                        error_estimate=min(math.sqrt(variance), bound),
                        blocks_read=n_read,
                        reason="storage_unavailable",
                        blocks_skipped=len(lost),
                    )
                )
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
        codes, slots, values, offsets, schedule = self._schedule(queries)
        if not len(schedule):
            return
        owner = np.repeat(np.arange(len(queries)), np.diff(offsets))
        # Each query's own bound mass on each block, in fetch order.
        masses = schedule.per_query(offsets)[1] * schedule.data_norms
        remaining = np.cumsum(masses, axis=1)[:, -1]
        totals = np.zeros(len(queries))
        pending = np.ones(len(schedule), dtype=bool)
        for step in range(len(schedule)):
            at = step
            if objective == "max":
                # Serve the worst-bounded query first: fetch the unread
                # block carrying its largest bound mass (the schedule's
                # next block when it has none left).
                worst = int(np.argmax(remaining))
                at = int(np.argmax(np.where(pending, masses[worst], -1.0)))
            pending[at] = False
            entries = schedule.entries(at)
            found = self._engine.store.block_values(
                int(schedule.codes[at]), slots[entries]
            )
            # Unbuffered, in entry order: each query's running total adds
            # its products left to right.
            np.add.at(totals, owner[entries], values[entries] * found)
            remaining = remaining - masses[:, at]
            yield BatchEstimate(
                estimates=tuple(totals.tolist()),
                error_bounds=tuple(np.maximum(0.0, remaining).tolist()),
                blocks_read=step + 1,
            )

    def shared_block_count(self, queries: list[RangeSumQuery]) -> int:
        """Blocks a shared evaluation reads (planning only, no I/O)."""
        return len(self._schedule(queries)[-1])

    def independent_block_count(self, queries: list[RangeSumQuery]) -> int:
        """Total blocks independent evaluations would read."""
        blocks_for = self._engine.store.blocks_for
        return sum(
            len(blocks_for(self._engine.query_arrays(query)[0]))
            for query in queries
        )
