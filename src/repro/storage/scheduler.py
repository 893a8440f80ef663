"""Importance-driven progressive I/O scheduling (§3.2.1).

The paper: "we can define a query dependent importance function on disk
blocks (e.g., minimizing worst-case or average error), which would allow
us to perform the most valuable I/O's first and deliver approximate
results progressively during query evaluation".

Given a sparse wavelet-domain query and an allocation, the scheduler
groups query coefficients by the block they live on, scores each block by
the query energy it carries, and yields blocks best-first.  The
progressive ProPolyne evaluator consumes this order: after each fetched
block the partial result is the exact answer restricted to the
coefficients seen so far, and the remaining query energy gives a
guaranteed Cauchy–Schwarz error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.errors import StorageError
from repro.storage.allocation import index_tuples

__all__ = [
    "BlockPlan",
    "plan_batch_blocks",
    "plan_blocks",
]


@dataclass(frozen=True)
class BlockPlan:
    """One scheduled block fetch.

    Attributes:
        block_id: The block to read.
        entries: Query coefficients living on that block
            (coefficient key -> query value).
        importance: Sum of squared query values on the block — the L2
            error reduction fetching it buys.
    """

    block_id: Hashable
    entries: dict
    importance: float


def plan_blocks(
    query_entries: dict,
    block_of,
    importance: str = "l2",
) -> list[BlockPlan]:
    """Order block fetches by query importance.

    Args:
        query_entries: Sparse query: coefficient key -> query coefficient.
            Keys are flat ints (1-D stores) or index tuples (tensor
            stores).
        block_of: Callable mapping a coefficient key to its block id.
        importance: ``"l2"`` scores blocks by sum of squared query
            coefficients (minimizes expected/average error soonest);
            ``"linf"`` by the largest absolute coefficient (minimizes
            worst-case error soonest).  Both orderings the paper mentions.

    Returns:
        Plans sorted by decreasing importance.
    """
    if importance not in ("l2", "linf"):
        raise StorageError(
            f"unknown importance function {importance!r}; use 'l2' or 'linf'"
        )
    grouped: dict[Hashable, dict] = {}
    for key, value in query_entries.items():
        grouped.setdefault(block_of(key), {})[key] = value
    plans = []
    for block_id, entries in grouped.items():
        values = np.array(list(entries.values()))
        score = (
            float(np.sum(values**2))
            if importance == "l2"
            else float(np.max(np.abs(values)))
        )
        plans.append(
            BlockPlan(block_id=block_id, entries=entries, importance=score)
        )
    plans.sort(key=lambda p: -p.importance)
    return plans


def plan_batch_blocks(
    translated: list[tuple],
    allocation,
    data_norms: dict | None = None,
) -> dict[Hashable, list]:
    """Merge several queries' sparse transforms into one block schedule.

    The batch analogue of :func:`plan_blocks`: coefficients from *all*
    queries are grouped by owning block, so each block appears exactly
    once however many queries touch it, ordered by decreasing combined
    importance (``sqrt(sum q^2) * ||data_block||`` when ``data_norms``
    is given, plain combined query energy otherwise) — the error-bound
    mass the whole batch recovers by fetching the block.

    Args:
        translated: One sparse transform per query, as ``(keys,
            values)`` arrays (``(N, ndim)`` multi-indices, ``N``
            coefficients).
        allocation: The :class:`~repro.storage.allocation.TensorAllocation`
            whose vectorized ``blocks_of`` assigns keys to blocks.
        data_norms: Optional per-block stored-data L2 norms.

    Returns:
        ``block_id -> [(query_index, coefficient_key, query_value)]``
        for every batch coefficient on the block, most important block
        first.
    """
    grouped: dict[Hashable, list] = {}
    for qi, (keys, values) in enumerate(translated):
        block_ids = allocation.block_ids(allocation.blocks_of(keys))
        for block_id, key, value in zip(
            block_ids, index_tuples(keys), values.tolist()
        ):
            grouped.setdefault(block_id, []).append((qi, key, value))

    def importance(block_id) -> float:
        energy = math.sqrt(sum(v * v for _, _, v in grouped[block_id]))
        if data_norms is None:
            return energy
        return energy * data_norms.get(block_id, 0.0)

    order = sorted(grouped, key=importance, reverse=True)
    return {block_id: grouped[block_id] for block_id in order}
