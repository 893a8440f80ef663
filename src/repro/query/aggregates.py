"""Statistical aggregates on top of polynomial range-sums.

The paper's promise (§3.3): ProPolyne supports "not only COUNT, SUM and
AVERAGE, but also VARIANCE, COVARIANCE and more", because every
second-order statistic decomposes into polynomial range-sums (Shao's
observation, §3.4.1).  The decompositions used here::

    COUNT(R)        = Q(R, 1)
    SUM_d(R)        = Q(R, x_d)
    AVERAGE_d(R)    = SUM_d / COUNT
    VARIANCE_d(R)   = Q(R, x_d^2)/COUNT - AVERAGE_d^2
    COVARIANCE(R)   = Q(R, x_i * x_j)/COUNT - AVERAGE_i * AVERAGE_j

Each aggregate issues its component sums through the shared-I/O batch
evaluator, so the blocks common to (say) COUNT and SUM are read once —
exactly the "share I/O maximally" behaviour of §3.3.1.
"""

from __future__ import annotations

from repro.core.errors import QueryError
from repro.obs import counter as obs_counter
from repro.obs import span
from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery

__all__ = ["StatisticalAggregates"]


class StatisticalAggregates:
    """COUNT/SUM/AVERAGE/VARIANCE/COVARIANCE over a ProPolyne engine."""

    def __init__(self, engine: ProPolyneEngine) -> None:
        self._engine = engine
        self._batch = BatchEvaluator(engine)

    # -- exact --------------------------------------------------------------

    def count(self, ranges: list[tuple[int, int]]) -> float:
        """Number of tuples in the range."""
        with span("aggregates.count"):
            obs_counter("aggregates.queries").inc()
            return self._engine.evaluate_exact(RangeSumQuery.count(ranges))

    def total(self, ranges: list[tuple[int, int]], dim: int) -> float:
        """SUM of attribute ``dim`` over the range."""
        with span("aggregates.sum"):
            obs_counter("aggregates.queries").inc()
            return self._engine.evaluate_exact(
                RangeSumQuery.weighted(ranges, {dim: 1})
            )

    def average(self, ranges: list[tuple[int, int]], dim: int) -> float:
        """AVERAGE of attribute ``dim`` over the range."""
        with span("aggregates.average"):
            obs_counter("aggregates.queries").inc()
            count, total = self._batch.evaluate_exact(
                [
                    RangeSumQuery.count(ranges),
                    RangeSumQuery.weighted(ranges, {dim: 1}),
                ]
            )
        if abs(count) < 1e-12:
            raise QueryError("AVERAGE over an empty range")
        return total / count

    def variance(self, ranges: list[tuple[int, int]], dim: int) -> float:
        """Population VARIANCE of attribute ``dim`` over the range."""
        with span("aggregates.variance"):
            obs_counter("aggregates.queries").inc()
            count, s1, s2 = self._batch.evaluate_exact(
                [
                    RangeSumQuery.count(ranges),
                    RangeSumQuery.weighted(ranges, {dim: 1}),
                    RangeSumQuery.weighted(ranges, {dim: 2}),
                ]
            )
        if abs(count) < 1e-12:
            raise QueryError("VARIANCE over an empty range")
        mean = s1 / count
        return s2 / count - mean * mean

    def covariance(
        self, ranges: list[tuple[int, int]], dim_i: int, dim_j: int
    ) -> float:
        """Population COVARIANCE of attributes ``dim_i`` and ``dim_j``."""
        if dim_i == dim_j:
            return self.variance(ranges, dim_i)
        with span("aggregates.covariance"):
            obs_counter("aggregates.queries").inc()
            count, si, sj, sij = self._batch.evaluate_exact(
                [
                    RangeSumQuery.count(ranges),
                    RangeSumQuery.weighted(ranges, {dim_i: 1}),
                    RangeSumQuery.weighted(ranges, {dim_j: 1}),
                    RangeSumQuery.weighted(ranges, {dim_i: 1, dim_j: 1}),
                ]
            )
        if abs(count) < 1e-12:
            raise QueryError("COVARIANCE over an empty range")
        return sij / count - (si / count) * (sj / count)
