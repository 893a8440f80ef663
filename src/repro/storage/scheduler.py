"""Importance-driven progressive I/O scheduling (§3.2.1).

The paper: "we can define a query dependent importance function on disk
blocks (e.g., minimizing worst-case or average error), which would allow
us to perform the most valuable I/O's first and deliver approximate
results progressively during query evaluation".

:func:`schedule_blocks` is that function, once: the progressive and
degradable evaluators, ``explain`` and the batch evaluator all read
block order, per-block query norms and error-bound masses from the
:class:`BlockSchedule` it returns.  A block's worth is the
Cauchy–Schwarz mass fetching it takes off the error bound,
``||q_B|| * ||d_B||``; blocks go **mass descending, ties by ascending
block code**.  Per-block norms add left to right in entry order
(``bincount``); every other sum is DESIGN.md's "One reduction order".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.reduce import total

__all__ = ["BlockSchedule", "schedule_blocks"]


@dataclass(frozen=True)
class BlockSchedule:
    """The blocks a located translation touches, in fetch order.

    Attributes:
        codes: Distinct block codes, most valuable first.
        query_norms: ``||q_B||`` of each block.
        data_norms: ``||d_B||`` of each block (0.0 where unrecorded).
        masses: ``query_norms * data_norms`` — what each fetch takes
            off the guaranteed error bound.
        values, entry_codes, n_codes: The scheduled entries and the
            block-grid size, kept for the lazy per-entry views below.
    """

    codes: np.ndarray
    query_norms: np.ndarray
    data_norms: np.ndarray
    masses: np.ndarray
    values: np.ndarray
    entry_codes: np.ndarray
    n_codes: int

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def bound(self) -> float:
        """The a-priori error bound: the masses summed in fetch order."""
        return float(total(self.masses))

    @cached_property
    def ranks(self) -> np.ndarray:
        """Every entry's block, as its position in the fetch order."""
        rank = np.empty(self.n_codes, dtype=np.intp)
        rank[self.codes] = np.arange(len(self))
        return rank[self.entry_codes]

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, offsets)``: entry indices sorted by fetch position,
        translation order kept within a block, and where each block's
        run of them starts."""
        offsets = np.zeros(len(self) + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.ranks, minlength=len(self)), out=offsets[1:])
        return np.argsort(self.ranks, kind="stable"), offsets

    def entries(self, position: int) -> np.ndarray:
        """Indices of the entries on the ``position``-th block, in
        translation order."""
        order, offsets = self.segments
        return order[offsets[position]:offsets[position + 1]]

    def per_query(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A CSR-stacked batch's schedule, query by query.

        Args:
            offsets: Query ``i`` owns entries ``offsets[i]:offsets[i + 1]``.

        Returns:
            ``(counts, norms)``, both ``(n_queries, n_blocks)`` in
            fetch order: how many entries query ``i`` has on the block
            (it touches the block when that is positive, not when
            ``norm > 0`` — a square can underflow), and its own
            ``||q_B||`` there.
        """
        shape = (len(offsets) - 1, len(self))
        size = shape[0] * shape[1]
        cell = self.ranks + shape[1] * np.repeat(
            np.arange(shape[0]), np.diff(offsets)
        )
        squares = self.values * self.values
        return (
            np.bincount(cell, minlength=size).reshape(shape),
            np.sqrt(
                np.bincount(cell, weights=squares, minlength=size)
            ).reshape(shape),
        )


def schedule_blocks(values, codes, allocation, block_norms) -> BlockSchedule:
    """Order the block fetches of one located translation.

    Args:
        values: Query coefficients, in translation order (one query's,
            or a batch's stacked back to back).
        codes: Each entry's block code (``allocation.locate``).
        allocation: The store's allocation (1-D or tensor).
        block_norms: Block code -> stored-data L2 norm ``||d_B||``.

    Returns:
        The :class:`BlockSchedule`; empty for an empty translation.
    """
    # Presence is ``distinct``, not ``energy > 0``: a square can
    # underflow to zero and its block must still be read.
    uniq = allocation.distinct(codes)
    query_norms = np.sqrt(
        np.bincount(codes, weights=values * values)[uniq]
    )
    data_norms = np.array(
        [block_norms.get(code, 0.0) for code in uniq.tolist()], dtype=float,
    )
    masses = query_norms * data_norms
    # Stable on codes already ascending: equal masses stay in code order.
    best = np.argsort(-masses, kind="stable")
    return BlockSchedule(
        codes=uniq[best],
        query_norms=query_norms[best],
        data_norms=data_norms[best],
        masses=masses[best],
        values=values,
        entry_codes=codes,
        n_codes=allocation.n_codes,
    )
