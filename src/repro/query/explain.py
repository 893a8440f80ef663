"""Query plan inspection and audit provenance — EXPLAIN for ProPolyne.

A DBMS exposes its plans; so does this one.  :func:`explain` translates a
range-sum without executing it and reports what evaluation *would* cost:
the sparse transform size per dimension, the blocks touched, the
importance profile driving the progressive order, and the worst-case
guarantee available before any I/O.  :func:`format_plan` renders the
classic indented text plan.

The other half is looking *backwards*: :class:`QueryProvenance` is the
structured audit record of an answer already delivered — which storage
epoch answered, which blocks and shards were touched, the cache
generations and breaker states at answer time, and the degradation
story (reason, guaranteed bound, one-sigma forecast).  It serializes to
JSON (``repro.provenance/v2``, the schema table in ``docs/REPLAY.md``)
so a degraded or historical answer can be audited long after the
process that produced it is gone.  :func:`provenance_of` builds one,
:func:`attach_provenance` returns the outcome with it attached; the
query service attaches provenance to every degradable outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.core.errors import QueryError
from repro.obs import counter as obs_counter
from repro.obs.spans import current_trace
from repro.query.propolyne import ProPolyneEngine, QueryOutcome
from repro.query.rangesum import RangeSumQuery
from repro.storage.scheduler import schedule_blocks
from repro.wavelets.lazy import cached_range_query_transform

__all__ = [
    "PROVENANCE_SCHEMA",
    "QueryPlan",
    "QueryProvenance",
    "attach_provenance",
    "explain",
    "format_plan",
    "provenance_of",
]

#: Version tag carried by every serialized provenance record.
PROVENANCE_SCHEMA = "repro.provenance/v2"


@dataclass(frozen=True)
class QueryPlan:
    """Everything known about a query before executing it.

    Attributes:
        query: The planned range-sum.
        per_dim_coefficients: Sparse transform size per dimension.
        total_coefficients: Multivariate sparse size (the product).
        blocks_to_read: Block fetches an exact evaluation performs.
        a_priori_bound: Guaranteed |answer| ceiling before any I/O
            (the full Cauchy–Schwarz budget).
        top_block_share: Fraction of the bound budget carried by the
            single most valuable block — large values mean the
            progressive evaluation front-loads well.
        filter_name: Filter the engine evaluates under.
    """

    query: RangeSumQuery
    per_dim_coefficients: tuple[int, ...]
    total_coefficients: int
    blocks_to_read: int
    a_priori_bound: float
    top_block_share: float
    filter_name: str


def explain(engine: ProPolyneEngine, query: RangeSumQuery) -> QueryPlan:
    """Plan (but do not execute) a range-sum on a populated engine.

    Performs no data-block I/O: only the lazy query translation and the
    allocation metadata are consulted.
    """
    values, codes, _slots = engine.query_located(query)
    per_dim = []
    for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys)):
        if query.is_empty():
            per_dim.append(0)
            continue
        if engine.levels[axis] == 0:
            per_dim.append(max(0, hi - lo + 1))
        else:
            sparse = cached_range_query_transform(
                list(poly), lo, hi, engine.shape[axis],
                wavelet=engine.filter, levels=engine.levels[axis],
            )
            per_dim.append(len(sparse))
    # The schedule the evaluators would fetch by: its summed masses are
    # the priming step's bound, its first block the most valuable one.
    schedule = schedule_blocks(
        values, codes, engine.store.allocation, engine._block_norms
    )
    total_budget = schedule.bound
    return QueryPlan(
        query=query,
        per_dim_coefficients=tuple(per_dim),
        total_coefficients=len(values),
        blocks_to_read=len(schedule),
        a_priori_bound=total_budget,
        top_block_share=(
            float(schedule.masses[0] / total_budget) if total_budget > 0
            else 0.0
        ),
        filter_name=engine.filter.name,
    )


def format_plan(plan: QueryPlan) -> str:
    """Render a plan as the classic indented EXPLAIN text."""
    lines = [
        f"RangeSum over {len(plan.query.ranges)} dimensions "
        f"(max degree {plan.query.max_degree}, filter {plan.filter_name})",
    ]
    for d, ((lo, hi), count) in enumerate(
        zip(plan.query.ranges, plan.per_dim_coefficients)
    ):
        lines.append(
            f"  -> dim {d}: range [{lo}, {hi}], "
            f"{count} sparse coefficients"
        )
    lines.append(
        f"  => {plan.total_coefficients} multivariate coefficients on "
        f"{plan.blocks_to_read} blocks"
    )
    lines.append(
        f"  => a-priori bound {plan.a_priori_bound:.3g}; top block carries "
        f"{plan.top_block_share:.0%} of it"
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class QueryProvenance:
    """Structured audit record of one delivered answer.

    Field-for-field, this is the ``repro.provenance/v2`` JSON schema
    documented in ``docs/REPLAY.md`` (a test asserts the two never
    drift).  Everything here is either recomputed deterministically
    from the query (block plan, shard placement) or snapshotted from
    the live store at attach time (breaker states, cache generations),
    so the record explains *why* an answer looks the way it does:
    a degraded value traces to an open breaker on a named shard; an
    as-of value names the epoch it reconstructed.

    Attributes:
        schema: Always :data:`PROVENANCE_SCHEMA`.
        epoch: Storage epoch the answer was evaluated against, or
            ``None`` for a live answer on an unversioned engine.
        current_epoch: The engine's epoch when provenance was built
            (equals ``epoch`` for live answers on versioned engines).
        degraded: Whether the answer fell short of exact.
        reason: ``None`` / ``"deadline"`` / ``"storage_unavailable"``.
        error_bound: Guaranteed ceiling on the answer's error.
        error_estimate: One-sigma probabilistic error forecast.
        blocks_read: Blocks actually fetched for the answer.
        blocks_skipped: Blocks skipped because storage was unavailable.
        blocks_planned: Blocks an exact evaluation would touch.
        blocks_by_shard: Planned block count per shard placement.
        breaker_states: Per-shard circuit-breaker state at attach time
            (``closed`` / ``half-open`` / ``open``).
        cache_generations: Per-shard caching-layer invalidation
            generation at attach time (a changed generation between
            two answers means the cache was invalidated in between).
        filter_name: Wavelet filter the engine evaluates under.
        trace_id: The trace of the span it was built in, or ``None``.
    """

    schema: str
    epoch: int | None
    current_epoch: int
    degraded: bool
    reason: str | None
    error_bound: float
    error_estimate: float
    blocks_read: int
    blocks_skipped: int
    blocks_planned: int
    blocks_by_shard: dict
    breaker_states: dict
    cache_generations: list
    filter_name: str
    trace_id: int | None

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready; dict keys become strings)."""
        return {
            "schema": self.schema,
            "epoch": self.epoch,
            "current_epoch": self.current_epoch,
            "degraded": self.degraded,
            "reason": self.reason,
            "error_bound": self.error_bound,
            "error_estimate": self.error_estimate,
            "blocks_read": self.blocks_read,
            "blocks_skipped": self.blocks_skipped,
            "blocks_planned": self.blocks_planned,
            "blocks_by_shard": {
                str(k): v for k, v in self.blocks_by_shard.items()
            },
            "breaker_states": {
                str(k): v for k, v in self.breaker_states.items()
            },
            "cache_generations": list(self.cache_generations),
            "filter_name": self.filter_name,
            "trace_id": self.trace_id,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialized audit record (the artifact CI uploads)."""
        return json.dumps(self.to_dict(), indent=indent)


def provenance_of(
    engine: ProPolyneEngine,
    query: RangeSumQuery,
    outcome: QueryOutcome,
    as_of: int | None = None,
) -> QueryProvenance:
    """Build the audit record for an already-delivered outcome.

    Performs no data-block I/O: the block plan and shard placement are
    recomputed from the (memoized) query translation and allocation
    metadata, and the breaker/cache state is read from the live store.

    Args:
        engine: The engine (or view) that produced ``outcome``.
        query: The range-sum that was evaluated.
        outcome: The delivered :class:`~repro.query.propolyne.QueryOutcome`.
        as_of: The epoch the evaluation was pinned to, if any.
    """
    store = engine.store
    # Which blocks, not in what order: ``distinct`` alone, no schedule.
    planned = store.allocation.distinct(engine.query_located(query)[1])
    blocks_by_shard: dict[int, int] = {}
    for shard in store.shard_of(planned).tolist():
        blocks_by_shard[shard] = blocks_by_shard.get(shard, 0) + 1
    breakers = getattr(store, "breakers", None) or []
    caches = getattr(store, "caches", None) or []
    log = getattr(engine, "_epoch_log", None)
    current_epoch = 0 if log is None else log.current
    epoch = as_of if as_of is not None else (
        None if log is None else current_epoch
    )
    obs_counter("provenance.records").inc()
    if outcome.degraded:
        obs_counter("provenance.degraded_records").inc()
    return QueryProvenance(
        schema=PROVENANCE_SCHEMA,
        epoch=epoch,
        current_epoch=current_epoch,
        degraded=outcome.degraded,
        reason=outcome.reason,
        error_bound=outcome.error_bound,
        error_estimate=outcome.error_estimate,
        blocks_read=outcome.blocks_read,
        blocks_skipped=outcome.blocks_skipped,
        blocks_planned=len(planned),
        blocks_by_shard=blocks_by_shard,
        breaker_states={
            i: breaker.state for i, breaker in enumerate(breakers)
        },
        cache_generations=[cache.generation for cache in caches],
        filter_name=engine.filter.name,
        trace_id=current_trace(),
    )


def attach_provenance(
    engine: ProPolyneEngine,
    query: RangeSumQuery,
    outcome: QueryOutcome,
    as_of: int | None = None,
) -> QueryOutcome:
    """Return ``outcome`` with its :class:`QueryProvenance` attached."""
    return replace(
        outcome, provenance=provenance_of(engine, query, outcome, as_of)
    )
