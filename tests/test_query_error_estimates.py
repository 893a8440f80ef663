"""Tests for the probabilistic error forecast (§3.3.1 refinement)."""

import numpy as np
import pytest

from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.sensors.atmosphere import atmospheric_cube


@pytest.fixture(scope="module")
def setup():
    cube = atmospheric_cube((64, 64), np.random.default_rng(181))
    engine = ProPolyneEngine(cube, max_degree=1, block_size=7)
    return cube, engine


def queries(rng, count=10):
    out = []
    for _ in range(count):
        lo1, lo2 = rng.integers(0, 40, size=2)
        out.append(
            RangeSumQuery.count(
                [(int(lo1), int(min(63, lo1 + rng.integers(10, 30)))),
                 (int(lo2), int(min(63, lo2 + rng.integers(10, 30))))]
            )
        )
    return out


class TestErrorForecast:
    def test_estimate_never_exceeds_guarantee(self, setup):
        __, engine = setup
        q = RangeSumQuery.count([(5, 50), (10, 60)])
        for est in engine.evaluate_progressive(q):
            assert est.error_estimate <= est.error_bound + 1e-9

    def test_forecast_tighter_than_guarantee(self, setup):
        """The point of the refinement: the forecast is usually much
        tighter than the worst-case guarantee mid-evaluation."""
        __, engine = setup
        q = RangeSumQuery.count([(5, 50), (10, 60)])
        steps = list(engine.evaluate_progressive(q))
        mid = steps[len(steps) // 4]
        assert mid.error_estimate < 0.5 * mid.error_bound

    def test_forecast_calibrated(self, setup):
        """Across queries and stopping points, the actual error should be
        within 3 forecast-sigmas most of the time."""
        cube, engine = setup
        rng = np.random.default_rng(182)
        within = 0
        total = 0
        for q in queries(rng):
            exact = evaluate_on_cube(cube, q)
            for est in engine.evaluate_progressive(q):
                if est.blocks_read % 5:
                    continue
                total += 1
                if abs(est.estimate - exact) <= 3 * est.error_estimate + 1e-9:
                    within += 1
        assert total > 10
        assert within / total >= 0.85

    def test_forecast_converges_to_zero(self, setup):
        __, engine = setup
        q = RangeSumQuery.count([(3, 30), (3, 30)])
        last = None
        for step in engine.evaluate_progressive(q):
            last = step
        assert last.error_estimate == pytest.approx(0.0, abs=1e-9)

    def test_confidence_interval(self, setup):
        cube, engine = setup
        q = RangeSumQuery.count([(5, 50), (10, 60)])
        exact = evaluate_on_cube(cube, q)
        covered = 0
        total = 0
        for est in engine.evaluate_progressive(q):
            # The 3-sigma forecast interval, clipped to the guarantee.
            half = min(3.0 * est.error_estimate, est.error_bound)
            total += 1
            covered += abs(exact - est.estimate) <= half + 1e-9
        assert covered / total >= 0.8
