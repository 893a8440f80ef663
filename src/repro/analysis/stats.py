"""Second-order statistics from summary sums (Shao's reduction, §3.4.1).

"All second order statistical aggregation functions (including hypothesis
testing, principle component analysis or SVD, and ANOVA) can be derived
from SUM queries of second order polynomials in the measure attributes."

This module implements that derivation layer: a :class:`SummaryStats`
triple (count, sum, sum of squares) — obtainable from three ProPolyne
range-sums — feeds Welch's t-test and one-way ANOVA without ever touching
the raw samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from repro.core.errors import QueryError

__all__ = ["SummaryStats", "welch_t_test", "one_way_anova"]


@dataclass(frozen=True)
class SummaryStats:
    """Sufficient statistics of one group: the three range-sums
    ``Q(R, 1)``, ``Q(R, x)`` and ``Q(R, x^2)``."""

    count: float
    total: float
    total_sq: float

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise QueryError(f"group count must be positive, got {self.count}")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "SummaryStats":
        """Summarize raw samples (the non-range-sum construction path)."""
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size == 0:
            raise QueryError("cannot summarize an empty sample")
        return cls(
            count=float(arr.size),
            total=float(arr.sum()),
            total_sq=float(np.sum(arr**2)),
        )

    @property
    def mean(self) -> float:
        """Sample mean ``total / count``."""
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self.count < 2:
            raise QueryError("variance needs count >= 2")
        ss = self.total_sq - self.total**2 / self.count
        return max(0.0, ss / (self.count - 1))


def welch_t_test(a: SummaryStats, b: SummaryStats) -> tuple[float, float]:
    """Welch's unequal-variance t-test from summary statistics.

    Returns:
        ``(t_statistic, p_value)`` (two-sided).
    """
    va, vb = a.variance / a.count, b.variance / b.count
    denom = np.sqrt(va + vb)
    if denom == 0:
        raise QueryError("t-test undefined: both groups have zero variance")
    t = (a.mean - b.mean) / denom
    df = (va + vb) ** 2 / (
        va**2 / (a.count - 1) + vb**2 / (b.count - 1)
    )
    p = 2.0 * float(_scipy_stats.t.sf(abs(t), df))
    return float(t), p


def one_way_anova(groups: list[SummaryStats]) -> tuple[float, float]:
    """One-way ANOVA F-test from per-group summary statistics.

    Returns:
        ``(f_statistic, p_value)``.
    """
    if len(groups) < 2:
        raise QueryError("ANOVA needs at least two groups")
    n_total = sum(g.count for g in groups)
    grand_total = sum(g.total for g in groups)
    grand_mean = grand_total / n_total
    ss_between = sum(g.count * (g.mean - grand_mean) ** 2 for g in groups)
    ss_within = sum(
        g.total_sq - g.total**2 / g.count for g in groups
    )
    df_between = len(groups) - 1
    df_within = n_total - len(groups)
    if df_within <= 0 or ss_within <= 0:
        raise QueryError("ANOVA degenerate: no within-group variation")
    f = (ss_between / df_between) / (ss_within / df_within)
    p = float(_scipy_stats.f.sf(f, df_between, df_within))
    return float(f), p
