"""Hybrid ProPolyne: standard basis on some dimensions, wavelets elsewhere.

§3.3.1: "we propose to develop a hybrid version of ProPolyne which uses
the standard basis in a subset of the dimensions (the standard dimensions)
and uses wavelets in all other dimensions.  Given this decomposition,
relational selection and aggregation operators can be used in the standard
dimensions to accumulate the results of ProPolyne queries in the other
dimensions.  Clearly the best choice of hybridization will perform at
least as well as a pure relational algorithm or pure ProPolyne ... for
many realistic datasets and query patterns, hybridizations can perform
dramatically better."

Implementation: the relation is partitioned by its standard-dimension
values; each partition owns a small ProPolyne cube over the wavelet
dimensions.  A query selects partitions relationally (exact-match or set
predicates on standard dimensions) and runs one sparse wavelet query per
matching partition.  The win: a point predicate on a categorical dimension
costs *one* partition instead of a ``O(filter_length * log n)``-factor
blow-up of the multivariate query transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import QueryError
from repro.core.reduce import total
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, relation_to_cube

__all__ = ["HybridCost", "HybridEngine"]


@dataclass(frozen=True)
class HybridCost:
    """Work accounting for one hybrid query."""

    partitions_touched: int
    query_coefficients: int
    blocks_read: int


class HybridEngine:
    """A relation stored hybrid: standard dims relational, rest wavelet.

    Args:
        rows: ``(n_tuples, d)`` integer relation.
        shape: Per-attribute domain sizes.
        standard_dims: Attribute indices kept in the standard basis.
        max_degree: Measure-degree support for the wavelet partitions.
        block_size: Per-axis virtual block size.
    """

    def __init__(
        self,
        rows: np.ndarray,
        shape: tuple[int, ...],
        standard_dims: tuple[int, ...],
        max_degree: int = 1,
        block_size: int = 7,
    ) -> None:
        data = np.asarray(rows)
        if data.ndim != 2 or data.shape[1] != len(shape):
            raise QueryError(
                f"relation shape {data.shape} incompatible with domain "
                f"shape {shape}"
            )
        if not standard_dims:
            raise QueryError(
                "hybrid engine needs at least one standard dimension; use "
                "ProPolyneEngine for the pure-wavelet case"
            )
        bad = [d for d in standard_dims if not 0 <= d < len(shape)]
        if bad:
            raise QueryError(f"standard dimensions out of range: {bad}")
        self.shape = tuple(shape)
        self.standard_dims = tuple(sorted(set(standard_dims)))
        self.wavelet_dims = tuple(
            d for d in range(len(shape)) if d not in self.standard_dims
        )
        if not self.wavelet_dims:
            raise QueryError("at least one dimension must stay wavelet")
        self._wavelet_shape = tuple(self.shape[d] for d in self.wavelet_dims)

        self.partitions: dict[tuple[int, ...], ProPolyneEngine] = {}
        self.partition_rows: dict[tuple[int, ...], int] = {}
        keys = [tuple(int(v) for v in row[list(self.standard_dims)]) for row in data]
        for key in sorted(set(keys)):
            members = data[[k == key for k in keys]]
            sub_rows = members[:, list(self.wavelet_dims)]
            cube = relation_to_cube(sub_rows, self._wavelet_shape)
            self.partitions[key] = ProPolyneEngine(
                cube, max_degree=max_degree, block_size=block_size
            )
            self.partition_rows[key] = int(members.shape[0])
        self.n_rows = int(data.shape[0])

    def _matching_partitions(
        self, predicates: dict[int, set[int]] | None
    ) -> list[tuple[int, ...]]:
        """Partitions passing the standard-dimension predicates."""
        predicates = predicates or {}
        unknown = [d for d in predicates if d not in self.standard_dims]
        if unknown:
            raise QueryError(
                f"predicates on non-standard dimensions: {unknown}"
            )
        out = []
        for key in self.partitions:
            keep = True
            for pos, dim in enumerate(self.standard_dims):
                allowed = predicates.get(dim)
                if allowed is not None and key[pos] not in allowed:
                    keep = False
                    break
            if keep:
                out.append(key)
        return out

    def query(
        self,
        predicates: dict[int, set[int]] | None,
        wavelet_ranges: list[tuple[int, int]],
        wavelet_degrees: dict[int, int] | None = None,
    ) -> tuple[float, HybridCost]:
        """Evaluate a hybrid query.

        Args:
            predicates: Standard-dimension selections: dim -> allowed
                values (``None``/missing dim = no constraint).
            wavelet_ranges: One ``(lo, hi)`` per wavelet dimension, in
                :attr:`wavelet_dims` order.
            wavelet_degrees: Monomial degrees per *wavelet-dims position*
                (as in :meth:`RangeSumQuery.weighted`).

        Returns:
            ``(value, cost)``: the aggregate plus work accounting.
        """
        if len(wavelet_ranges) != len(self.wavelet_dims):
            raise QueryError(
                f"{len(wavelet_ranges)} ranges for "
                f"{len(self.wavelet_dims)} wavelet dimensions"
            )
        sub_query = RangeSumQuery.weighted(
            wavelet_ranges, wavelet_degrees or {}
        )
        value = 0.0
        coeffs = 0
        blocks = 0
        keys = self._matching_partitions(predicates)
        for key in keys:
            engine = self.partitions[key]
            before = engine.store.io_snapshot()
            value += engine.evaluate_exact(sub_query)
            blocks += engine.store.io_since(before).reads
            coeffs += engine.n_query_coefficients(sub_query)
        return value, HybridCost(
            partitions_touched=len(keys),
            query_coefficients=coeffs,
            blocks_read=blocks,
        )

    def query_progressive(
        self,
        predicates: dict[int, set[int]] | None,
        wavelet_ranges: list[tuple[int, int]],
        wavelet_degrees: dict[int, int] | None = None,
    ):
        """Progressive hybrid evaluation.

        The matching partitions' progressive streams are merged greedily:
        each global step advances the partition whose remaining guaranteed
        bound is largest (the cross-partition version of "most valuable
        I/O first").  Yields :class:`repro.query.propolyne.
        ProgressiveEstimate` values for the *summed* aggregate, with the
        summed guaranteed bound.
        """
        from repro.query.propolyne import ProgressiveEstimate

        if len(wavelet_ranges) != len(self.wavelet_dims):
            raise QueryError(
                f"{len(wavelet_ranges)} ranges for "
                f"{len(self.wavelet_dims)} wavelet dimensions"
            )
        sub_query = RangeSumQuery.weighted(
            wavelet_ranges, wavelet_degrees or {}
        )
        keys = self._matching_partitions(predicates)
        streams = {}
        state = {}
        blocks = 0
        coeffs = 0
        # Prime every matching partition with its first block.
        for key in keys:
            gen = self.partitions[key].evaluate_progressive(sub_query)
            first = next(gen, None)
            if first is None:
                continue
            streams[key] = gen
            state[key] = first
            blocks += first.blocks_read
            coeffs += first.coefficients_used
        if not state:
            yield ProgressiveEstimate(0.0, 0.0, 0.0, 0, 0)
            return

        def combined() -> ProgressiveEstimate:
            estimate, bound, variance = total(np.transpose([
                [s.estimate, s.error_bound, s.error_estimate**2]
                for s in state.values()
            ])).tolist()
            return ProgressiveEstimate(
                estimate=estimate,
                error_bound=bound,
                error_estimate=variance**0.5,
                blocks_read=blocks,
                coefficients_used=coeffs,
            )

        yield combined()
        while streams:
            # Advance the partition with the largest remaining bound.
            key = max(streams, key=lambda k: state[k].error_bound)
            step = next(streams[key], None)
            if step is None:
                del streams[key]
                continue
            blocks += 1
            coeffs += step.coefficients_used - state[key].coefficients_used
            state[key] = step
            yield combined()

    def relational_scan_cost(
        self, predicates: dict[int, set[int]] | None
    ) -> int:
        """Rows a pure relational evaluation would examine.

        With partition metadata a relational engine still scans every
        tuple of the matching partitions — the baseline cost.
        """
        return sum(
            self.partition_rows[k]
            for k in self._matching_partitions(predicates)
        )
