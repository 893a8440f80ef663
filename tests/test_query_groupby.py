"""Tests for the SQL-style group-by surface and joint best basis."""

import numpy as np
import pytest

from repro.core.errors import QueryError, TransformError
from repro.query.batch import group_by
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.wavelets.packet import best_basis, joint_best_basis, wavelet_packet_decompose


RNG = np.random.default_rng(171)


@pytest.fixture(scope="module")
def cube():
    return np.abs(RNG.normal(size=(32, 32))) + 0.1


@pytest.fixture(scope="module")
def engine(cube):
    return ProPolyneEngine(cube, max_degree=1, block_size=7)


class TestGroupBy:
    def test_values_match_dense(self, cube, engine):
        result = group_by(engine, dim=0, group_width=8)
        assert len(result.labels) == 4
        for (lo, hi), value in result.as_dict().items():
            want = evaluate_on_cube(
                cube, RangeSumQuery.count([(lo, hi), (0, 31)])
            )
            assert value == pytest.approx(want)

    def test_cells_partition_total(self, cube, engine):
        result = group_by(engine, dim=1, group_width=4)
        assert sum(result.values) == pytest.approx(float(cube.sum()))

    def test_other_ranges_respected(self, cube, engine):
        result = group_by(
            engine, dim=0, group_width=16, other_ranges={1: (5, 10)}
        )
        for (lo, hi), value in result.as_dict().items():
            want = evaluate_on_cube(
                cube, RangeSumQuery.count([(lo, hi), (5, 10)])
            )
            assert value == pytest.approx(want)

    def test_weighted_measure(self, cube, engine):
        result = group_by(engine, dim=0, group_width=16, degrees={1: 1})
        for (lo, hi), value in result.as_dict().items():
            want = evaluate_on_cube(
                cube, RangeSumQuery.weighted([(lo, hi), (0, 31)], {1: 1})
            )
            assert value == pytest.approx(want)

    def test_io_saving_positive(self, engine):
        result = group_by(engine, dim=0, group_width=4)
        assert result.blocks_read < result.blocks_independent

    def test_ragged_last_cell(self, engine):
        result = group_by(engine, dim=0, group_width=12)
        assert result.labels[-1] == (24, 31)

    def test_validation(self, engine):
        with pytest.raises(QueryError):
            group_by(engine, dim=2, group_width=4)
        with pytest.raises(QueryError):
            group_by(engine, dim=0, group_width=0)
        with pytest.raises(QueryError):
            group_by(engine, dim=0, group_width=4, other_ranges={0: (0, 1)})


class TestJointBestBasis:
    def test_single_signal_matches_best_basis(self):
        x = RNG.normal(size=64)
        tree = wavelet_packet_decompose(x, "db2")
        assert joint_best_basis([x], "db2") == best_basis(tree)

    def test_cover_is_complete(self):
        signals = [RNG.normal(size=64) for _ in range(5)]
        cover = joint_best_basis(signals, "db2")
        assert sum(2.0 ** -len(p) for p in cover) == pytest.approx(1.0)

    def test_shared_tone_goes_deep(self):
        t = np.arange(128)
        tone = np.sin(2 * np.pi * 30 * t / 128)
        signals = [
            a * tone + 0.01 * RNG.normal(size=128) for a in (1.0, -0.5, 2.0)
        ]
        cover = joint_best_basis(signals, "db4")
        assert any(len(p) >= 2 for p in cover)

    def test_validation(self):
        with pytest.raises(TransformError):
            joint_best_basis([], "db2")
        with pytest.raises(TransformError):
            joint_best_basis([np.ones(8), np.ones(16)], "haar")
