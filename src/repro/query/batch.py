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
from repro.storage.scheduler import plan_batch_blocks
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

    def _translate(self, queries: list[RangeSumQuery], located=False):
        """Every query's translation: ``(keys, values)`` arrays, or the
        exact path's ``located`` ``(values, codes, slots)``."""
        if not queries:
            raise QueryError("batch evaluation needs at least one query")
        engine = self._engine
        translate = engine.query_located if located else engine.query_arrays
        return [translate(q) for q in queries]

    def _stack(self, located: list[tuple]):
        """CSR-stack every query's ``(values, codes, slots)`` translation.

        Segment ``i`` keeps query ``i``'s translation order, so its dot
        against the gathered payloads reduces in exactly the order the
        engine's scalar kernel uses.

        Returns:
            ``(codes, slots, values, offsets)`` — each stacked entry's
            block code and in-block slot, the query values, and the CSR
            segment offsets.
        """
        offsets = np.zeros(len(located) + 1, dtype=np.intp)
        np.cumsum([len(values) for values, _, _ in located], out=offsets[1:])
        values, codes, slots = map(np.concatenate, zip(*located))
        return codes, slots, values, offsets

    def _block_order(self, codes: np.ndarray, values: np.ndarray):
        """Distinct block codes of a stacked batch, best-combined-energy
        first: a ``bincount`` over the codes accumulates each block's
        combined query energy (weighted by the stored data norm, as in
        :func:`~repro.storage.scheduler.plan_batch_blocks`).  Returns
        the ordered codes and their block ids.
        """
        allocation = self._engine.store.allocation
        # Presence is not ``energy > 0``: a square can underflow to zero.
        uniq = allocation.distinct(codes)
        energy = np.sqrt(np.bincount(codes, weights=values * values)[uniq])
        blocks = allocation.block_ids(uniq)
        norms = self._engine._block_norms
        importance = energy * np.array(
            [norms.get(block_id, 0.0) for block_id in blocks]
        )
        best = np.argsort(-importance, kind="stable")
        return uniq[best], [blocks[i] for i in best.tolist()]

    def _merged_plan(self, translated: list[tuple]) -> dict:
        """All queries' coefficients grouped by block: block id ->
        ``[(query_index, coeff_index, query_value)]``, in decreasing
        combined importance (query energy times stored data norm)."""
        return plan_batch_blocks(
            translated,
            self._engine.store.allocation,
            data_norms=self._engine._block_norms,
        )

    def evaluate_exact(self, queries: list[RangeSumQuery]) -> list[float]:
        """Exact answers for every query, reading each block once.

        One coalesced bulk fetch, one gather, one segment-dot per query
        — each answer bitwise-identical to the engine's sequential
        :meth:`~repro.query.propolyne.ProPolyneEngine.evaluate_exact`.
        """
        with span("query.batch.exact"):
            codes, slots, values, offsets = self._stack(
                self._translate(queries, located=True)
            )
            order_codes, order = self._block_order(codes, values)
            obs_counter("query.batch.batches").inc()
            obs_counter("query.batch.queries").inc(len(queries))
            obs_histogram(
                "query.batch.size", DEFAULT_COUNT_BUCKETS
            ).observe(len(queries))
            obs_histogram(
                "query.batch.blocks", DEFAULT_COUNT_BUCKETS
            ).observe(len(order))
            buffer, base = self._engine.store.allocation.pack(
                order_codes, order, self._engine.store.fetch_blocks(order)
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
            translated = self._translate(queries)
            block_map = self._merged_plan(translated)
            obs_counter("query.batch.batches").inc()
            obs_counter("query.batch.queries").inc(len(queries))
            norms = self._engine._block_norms
            sizes = self._engine._block_sizes
            payloads: dict = {}
            skipped: set = set()
            for block_id in block_map:
                try:
                    payloads[block_id] = self._engine.store.fetch_block(
                        block_id
                    )
                except StorageUnavailable:
                    skipped.add(block_id)
            allocation = self._engine.store.allocation
            codes, slots, values, offsets = self._stack([
                (values, *allocation.locate(keys))
                for keys, values in translated
            ])
            uniq = allocation.distinct(codes)
            code_of = dict(zip(allocation.block_ids(uniq), uniq.tolist()))
            buffer, base = allocation.pack(
                [code_of[block_id] for block_id in payloads],
                list(payloads), payloads,
            )
            pos = base[codes] + slots
            unread = np.zeros(allocation.n_codes, dtype=bool)
            unread[[code_of[block_id] for block_id in skipped]] = True
            blocks_of_query: dict[int, set] = {
                qi: set() for qi in range(len(queries))
            }
            for block_id, triples in block_map.items():
                for qi, _, _ in triples:
                    blocks_of_query[qi].add(block_id)
            outcomes = []
            for qi in range(len(queries)):
                mine = blocks_of_query[qi]
                lost = mine & skipped
                read = len(mine) - len(lost)
                lo, hi = int(offsets[qi]), int(offsets[qi + 1])
                if not lost:
                    value = float(
                        np.dot(values[lo:hi], buffer[pos[lo:hi]])
                    )
                    outcomes.append(
                        QueryOutcome(value, False, 0.0, 0.0, read, None)
                    )
                    continue
                # Partial answer over surviving blocks, plus the skipped
                # blocks' guaranteed bound and one-sigma forecast.
                available = ~unread[codes[lo:hi]]
                estimate = float(
                    np.dot(
                        values[lo:hi][available],
                        buffer[pos[lo:hi][available]],
                    )
                )
                bound = 0.0
                variance = 0.0
                for block_id in lost:
                    q_norm = math.sqrt(
                        sum(
                            v * v
                            for bqi, _, v in block_map[block_id]
                            if bqi == qi
                        )
                    )
                    mass = q_norm * norms.get(block_id, 0.0)
                    bound += mass
                    variance += mass**2 / max(sizes.get(block_id, 1), 1)
                obs_counter("query.batch.degraded").inc()
                outcomes.append(
                    QueryOutcome(
                        value=estimate,
                        degraded=True,
                        error_bound=bound,
                        error_estimate=min(math.sqrt(variance), bound),
                        blocks_read=read,
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
        block_map = self._merged_plan(self._translate(queries))
        norms = self._engine._block_norms
        remaining = [0.0] * len(queries)
        q_block_norm: dict[tuple[int, object], float] = {}
        blocks_of_query: dict[int, set] = {qi: set() for qi in range(len(queries))}
        for block_id, triples in block_map.items():
            per_q: dict[int, float] = {}
            for qi, _, qval in triples:
                per_q[qi] = per_q.get(qi, 0.0) + qval * qval
            for qi, sq in per_q.items():
                contribution = math.sqrt(sq) * norms.get(block_id, 0.0)
                q_block_norm[(qi, block_id)] = contribution
                remaining[qi] += contribution
                blocks_of_query[qi].add(block_id)

        totals = [0.0] * len(queries)
        pending = list(block_map)
        step = 0
        while pending:
            if objective == "l2":
                block_id = pending.pop(0)
            else:
                # Serve the worst-bounded query first: among its unread
                # blocks, fetch the one carrying its largest bound mass.
                worst = max(range(len(queries)), key=lambda qi: remaining[qi])
                candidates = [
                    b for b in blocks_of_query[worst]
                    if (worst, b) in q_block_norm
                ]
                if candidates:
                    block_id = max(
                        candidates, key=lambda b: q_block_norm[(worst, b)]
                    )
                else:
                    block_id = pending[0]
                pending.remove(block_id)
            step += 1
            triples = block_map[block_id]
            found = self._engine.store.block_values(
                block_id, [idx for _, idx, _ in triples]
            )
            for (qi, _, qval), stored in zip(triples, found.tolist()):
                totals[qi] += qval * stored
            for qi in range(len(queries)):
                remaining[qi] -= q_block_norm.pop((qi, block_id), 0.0)
            yield BatchEstimate(
                estimates=tuple(totals),
                error_bounds=tuple(max(0.0, r) for r in remaining),
                blocks_read=step,
            )

    def shared_block_count(self, queries: list[RangeSumQuery]) -> int:
        """Blocks a shared evaluation reads (planning only, no I/O)."""
        return len(self._merged_plan(self._translate(queries)))

    def independent_block_count(self, queries: list[RangeSumQuery]) -> int:
        """Total blocks independent evaluations would read."""
        blocks_for = self._engine.store.blocks_for
        return sum(
            len(blocks_for(self._engine.query_arrays(query)[0]))
            for query in queries
        )
