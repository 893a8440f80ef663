"""Tests for cube persistence, the live sampler hook, and the max-bound
batch objective."""

import numpy as np
import pytest

from repro.core.aims import AIMS, AIMSConfig
from repro.core.errors import AIMSError, QueryError
from repro.query.batch import BatchEvaluator
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube


RNG = np.random.default_rng(221)


class TestSaveLoadCube:
    def test_roundtrip_answers_identically(self):
        system = AIMS(AIMSConfig(max_degree=1))
        cube = np.abs(RNG.normal(size=(32, 32)))
        system.populate("orig", cube)
        ref = system.save_cube("orig")

        restored = system.load_cube("copy", ref)
        for __ in range(5):
            lo1, lo2 = RNG.integers(0, 20, size=2)
            q = RangeSumQuery.count(
                [(int(lo1), int(lo1) + 10), (int(lo2), int(lo2) + 10)]
            )
            assert restored.evaluate_exact(q) == pytest.approx(
                system.engine("orig").evaluate_exact(q)
            )

    def test_save_is_catalogued(self):
        system = AIMS()
        system.populate("c", np.ones((16, 16)))
        ref = system.save_cube("c")
        assert ref.name == "cube:c"
        assert len(system.blobs) == 1
        assert system.blobs.get(ref.location_id) == system.blobs.get(ref)

    def test_load_checks_degree(self):
        saver = AIMS(AIMSConfig(max_degree=1))
        saver.populate("c", np.ones((16, 16)))
        ref = saver.save_cube("c")
        loader = AIMS(AIMSConfig(max_degree=2))
        loader.blobs = saver.blobs
        with pytest.raises(AIMSError):
            loader.load_cube("c2", ref)

    def test_load_after_inserts(self):
        """Persistence captures the appended tuples too."""
        system = AIMS(AIMSConfig(max_degree=1))
        cube = np.zeros((16, 16))
        engine = system.populate("c", cube)
        engine.insert((3, 3))
        engine.insert((3, 3))
        ref = system.save_cube("c")
        restored = system.load_cube("c2", ref)
        q = RangeSumQuery.count([(0, 15), (0, 15)])
        assert restored.evaluate_exact(q) == pytest.approx(2.0)

    def test_save_unknown_cube(self):
        with pytest.raises(QueryError):
            AIMS().save_cube("ghost")


class TestLiveSamplerHook:
    def test_returns_working_sampler(self):
        from repro.sensors.glove import CyberGloveSimulator
        from repro.sensors.noise import NoiseModel

        system = AIMS()
        sampler = system.live_sampler(width=28, rate_hz=100.0)
        sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
        session = sim.capture(3.0, np.random.default_rng(0))
        samples = sampler.process(session)
        assert samples
        assert sampler.stats.ticks_seen == session.shape[0]


class TestMaxObjectiveBatch:
    def _setup(self):
        from repro.query.propolyne import ProPolyneEngine

        cube = np.abs(RNG.normal(size=(32, 32)))
        engine = ProPolyneEngine(cube, max_degree=0, block_size=7)
        queries = [
            RangeSumQuery.count([(8 * g, 8 * g + 7), (0, 31)])
            for g in range(4)
        ]
        return cube, engine, queries

    def test_max_objective_converges_exact(self):
        cube, engine, queries = self._setup()
        batch = BatchEvaluator(engine)
        last = None
        for step in batch.evaluate_progressive(queries, objective="max"):
            last = step
        for value, q in zip(last.estimates, queries):
            assert value == pytest.approx(evaluate_on_cube(cube, q))

    def test_max_objective_shrinks_worst_bound_faster(self):
        """The point of the worst-case ordering: at matched I/O the
        maximum per-query bound under 'max' is never behind 'l2'."""
        __, engine, queries = self._setup()
        batch = BatchEvaluator(engine)
        worst_l2 = [
            max(s.error_bounds)
            for s in batch.evaluate_progressive(queries, objective="l2")
        ]
        worst_max = [
            max(s.error_bounds)
            for s in batch.evaluate_progressive(queries, objective="max")
        ]
        quarter = len(worst_l2) // 4
        assert worst_max[quarter] <= worst_l2[quarter] + 1e-9

    def test_bounds_guaranteed_under_max(self):
        cube, engine, queries = self._setup()
        exacts = [evaluate_on_cube(cube, q) for q in queries]
        batch = BatchEvaluator(engine)
        for step in batch.evaluate_progressive(queries, objective="max"):
            for est, bound, exact in zip(
                step.estimates, step.error_bounds, exacts
            ):
                assert abs(est - exact) <= bound + 1e-6

    def test_unknown_objective(self):
        __, engine, queries = self._setup()
        with pytest.raises(QueryError):
            list(
                BatchEvaluator(engine).evaluate_progressive(
                    queries, objective="psychic"
                )
            )
