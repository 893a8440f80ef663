"""Tests for the analysis subsystem: SVM, features, validation, stats."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.errors import AIMSError, QueryError, SchemaError
from repro.analysis.features import (
    cohort_features,
    session_features,
    tracker_speed_features,
)
from repro.analysis.stats import SummaryStats, one_way_anova, welch_t_test
from repro.analysis.svm import SVM
from repro.analysis.validation import (
    Standardizer,
    accuracy,
    confusion,
    cross_validate,
    kfold_indices,
)
from repro.sensors.classroom import generate_cohort


RNG = np.random.default_rng(111)


def blobs(n=60, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    x_pos = rng.normal(size=(n // 2, 2)) + gap / 2
    x_neg = rng.normal(size=(n // 2, 2)) - gap / 2
    x = np.vstack([x_pos, x_neg])
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    return x, y


class TestSVM:
    def test_separable_blobs(self):
        x, y = blobs(gap=4.0)
        model = SVM(c=1.0).fit(x, y)
        assert accuracy(y, model.predict(x)) >= 0.98

    def test_decision_function_sign(self):
        x, y = blobs(gap=4.0)
        model = SVM().fit(x, y)
        scores = model.decision_function(x)
        assert np.all(np.sign(scores) == model.predict(x))

    def test_rbf_solves_xor(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
        linear = SVM(kernel="linear").fit(x, y)
        rbf = SVM(kernel="rbf", gamma=2.0, c=10.0).fit(x, y)
        assert accuracy(y, rbf.predict(x)) > accuracy(y, linear.predict(x))
        assert accuracy(y, rbf.predict(x)) >= 0.9

    def test_support_vectors_sparse(self):
        x, y = blobs(n=100, gap=5.0)
        model = SVM(c=1.0).fit(x, y)
        assert len(model._support_x) < 50

    def test_deterministic(self):
        x, y = blobs()
        a = SVM(seed=3).fit(x, y).decision_function(x)
        b = SVM(seed=3).fit(x, y).decision_function(x)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(AIMSError):
            SVM(c=0.0)
        with pytest.raises(AIMSError):
            SVM(kernel="poly")
        with pytest.raises(AIMSError):
            SVM(kernel="rbf", gamma=0.0)
        model = SVM()
        with pytest.raises(AIMSError):
            model.predict(np.zeros((2, 2)))
        with pytest.raises(AIMSError):
            model.fit(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))


class TestFeatures:
    def test_tracker_speed_features_shape(self):
        matrix = RNG.normal(size=(100, 6))
        feats = tracker_speed_features(matrix, rate_hz=60.0)
        assert feats.shape == (6,)
        assert np.all(feats >= 0)

    def test_faster_motion_bigger_features(self):
        t = np.arange(200) / 60.0
        slow = np.column_stack([np.sin(2 * np.pi * 0.5 * t)] * 6)
        fast = np.column_stack([np.sin(2 * np.pi * 4.0 * t)] * 6)
        f_slow = tracker_speed_features(slow, 60.0)
        f_fast = tracker_speed_features(fast, 60.0)
        assert f_fast[0] > f_slow[0]

    def test_session_features(self):
        cohort = generate_cohort(1, np.random.default_rng(0), duration=10.0)
        feats = session_features(cohort[0])
        assert feats.shape == (5 * 6,)  # 5 trackers x 6 features

    def test_cohort_features_labels(self):
        cohort = generate_cohort(2, np.random.default_rng(0), duration=5.0)
        x, y = cohort_features(cohort)
        assert x.shape == (4, 30)
        assert sorted(y.tolist()) == [-1.0, -1.0, 1.0, 1.0]

    def test_validation(self):
        with pytest.raises(SchemaError):
            tracker_speed_features(np.zeros((10, 5)), 60.0)
        with pytest.raises(SchemaError):
            tracker_speed_features(np.zeros((10, 6)), 0.0)
        with pytest.raises(SchemaError):
            cohort_features([])


class TestValidation:
    def test_standardizer(self):
        x = RNG.normal(size=(50, 3)) * 10 + 4
        scaler = Standardizer().fit(x)
        z = scaler.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_standardizer_constant_column(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = Standardizer().fit(x).transform(x)
        assert np.all(np.isfinite(z))

    def test_unfitted_rejected(self):
        with pytest.raises(AIMSError):
            Standardizer().transform(np.zeros((2, 2)))

    def test_accuracy_and_confusion(self):
        t = np.array([1, 1, -1, -1.0])
        p = np.array([1, -1, -1, 1.0])
        assert accuracy(t, p) == 0.5
        c = confusion(t, p)
        assert c == {"tp": 1, "tn": 1, "fp": 1, "fn": 1}

    def test_kfold_partitions(self):
        splits = kfold_indices(20, 4, np.random.default_rng(0))
        assert len(splits) == 4
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(20))
        for train, test in splits:
            assert set(train) & set(test) == set()

    def test_cross_validate_on_blobs(self):
        x, y = blobs(n=60, gap=4.0)
        result = cross_validate(lambda: SVM(c=1.0), x, y, k=5)
        assert result["mean_accuracy"] >= 0.9
        assert result["folds"] == 5.0

    def test_kfold_validation(self):
        with pytest.raises(AIMSError):
            kfold_indices(5, 1, np.random.default_rng(0))
        with pytest.raises(AIMSError):
            kfold_indices(3, 5, np.random.default_rng(0))


class TestSummaryStats:
    def test_from_samples(self):
        data = RNG.normal(size=100) * 3 + 1
        s = SummaryStats.from_samples(data)
        assert s.mean == pytest.approx(float(data.mean()))
        assert s.variance == pytest.approx(float(data.var(ddof=1)))

    def test_welch_matches_scipy(self):
        a = RNG.normal(size=40) + 0.8
        b = RNG.normal(size=55)
        t_ours, p_ours = welch_t_test(
            SummaryStats.from_samples(a), SummaryStats.from_samples(b)
        )
        t_ref, p_ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert t_ours == pytest.approx(float(t_ref))
        assert p_ours == pytest.approx(float(p_ref))

    def test_anova_matches_scipy(self):
        groups = [RNG.normal(size=30) + shift for shift in (0.0, 0.5, 1.0)]
        f_ours, p_ours = one_way_anova(
            [SummaryStats.from_samples(g) for g in groups]
        )
        f_ref, p_ref = scipy_stats.f_oneway(*groups)
        assert f_ours == pytest.approx(float(f_ref))
        assert p_ours == pytest.approx(float(p_ref))

    def test_from_range_sums(self):
        """The Shao path: the same triple out of a ProPolyne engine."""
        from repro.query.propolyne import ProPolyneEngine
        from repro.query.rangesum import RangeSumQuery, relation_to_cube

        values = RNG.integers(0, 16, size=80)
        rows = np.column_stack([np.zeros(80, dtype=int), values])
        engine = ProPolyneEngine(
            relation_to_cube(rows, (8, 16)), max_degree=2, block_size=3
        )
        ranges = [(0, 7), (0, 15)]
        count, total, total_sq = (
            engine.evaluate_exact(RangeSumQuery.weighted(ranges, degrees))
            for degrees in ({}, {1: 1}, {1: 2})
        )
        s = SummaryStats(count=count, total=total, total_sq=total_sq)
        assert s.count == pytest.approx(80.0)
        assert s.mean == pytest.approx(float(values.mean()))
        assert s.variance == pytest.approx(float(values.var(ddof=1)))

    def test_validation(self):
        with pytest.raises(QueryError):
            SummaryStats(count=0, total=0, total_sq=0)
        with pytest.raises(QueryError):
            SummaryStats.from_samples(np.array([]))
        with pytest.raises(QueryError):
            one_way_anova([SummaryStats.from_samples(np.ones(3))])
        same = SummaryStats.from_samples(np.ones(5))
        with pytest.raises(QueryError):
            welch_t_test(same, same)
