"""Tests for behavioural queries (repro.analysis.behaviour) and the DTW
similarity baseline."""

import numpy as np
import pytest

from repro.core.errors import QueryError, RecognitionError
from repro.analysis.behaviour import (
    attention_periods,
    distractions_near_misses,
    hits_vs_attention_covariance,
)
from repro.online.similarity import SIMILARITY_MEASURES, dtw_similarity
from repro.sensors.classroom import generate_cohort, make_profile, simulate_session


RNG_SEED = 201


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(RNG_SEED)
    return generate_cohort(8, rng, duration=60.0, separation=1.5)


class TestDistractionsNearMisses:
    def test_one_context_per_miss(self, cohort):
        for session in cohort:
            contexts = distractions_near_misses(session)
            assert len(contexts) == session.misses()

    def test_context_overlap_is_genuine(self, cohort):
        for session in cohort:
            for ctx in distractions_near_misses(session, window=2.0):
                if ctx.distraction is not None:
                    d = ctx.distraction
                    assert (
                        d.start - 2.0
                        <= ctx.miss.timestamp
                        <= d.end + 2.0
                    )

    def test_window_zero_is_strict(self, cohort):
        session = cohort[0]
        wide = distractions_near_misses(session, window=10.0)
        strict = distractions_near_misses(session, window=0.0)
        n_wide = sum(1 for c in wide if c.distraction is not None)
        n_strict = sum(1 for c in strict if c.distraction is not None)
        assert n_strict <= n_wide

    def test_negative_window_rejected(self, cohort):
        with pytest.raises(QueryError):
            distractions_near_misses(cohort[0], window=-1.0)


class TestAttentionPeriods:
    def test_nonnegative_and_bounded(self, cohort):
        for session in cohort:
            attention = attention_periods(session)
            total_distraction = sum(
                d.end - d.start for d in session.distractions
            )
            assert 0.0 <= attention <= total_distraction + 1e-9

    def test_adhd_attends_more(self, cohort):
        by_group = {"normal": [], "adhd": []}
        for session in cohort:
            by_group[session.profile.group].append(attention_periods(session))
        assert np.mean(by_group["adhd"]) > np.mean(by_group["normal"])

    def test_threshold_validated(self, cohort):
        with pytest.raises(QueryError):
            attention_periods(cohort[0], orientation_threshold=0.0)


class TestHitsVsAttention:
    def test_negative_correlation(self):
        """The paper's hypothesized sign: distraction attention trades
        against task hits (driven by the shared group factor).  Long
        sessions and a clear group separation keep the per-seed noise
        below the effect."""
        rng = np.random.default_rng(777)
        cohort = generate_cohort(20, rng, duration=120.0, separation=2.0)
        cov, r = hits_vs_attention_covariance(cohort)
        assert r < -0.1

    def test_needs_two_sessions(self, cohort):
        with pytest.raises(QueryError):
            hits_vs_attention_covariance(cohort[:1])


class TestDtwSimilarity:
    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(40, 6))
        assert dtw_similarity(m, m) == pytest.approx(1.0, abs=1e-9)

    def test_warp_tolerance_beats_euclidean(self):
        """A time-warped copy should look closer under DTW than under
        plain Euclidean."""
        from repro.online.similarity import euclidean_similarity

        t = np.linspace(0, 1, 80)
        base = np.column_stack(
            [np.sin(2 * np.pi * 2 * t + p) for p in np.linspace(0, 1, 6)]
        )
        warped_t = t ** 1.4  # nonlinear time warp
        warped = np.column_stack(
            [np.sin(2 * np.pi * 2 * warped_t + p) for p in np.linspace(0, 1, 6)]
        )
        assert dtw_similarity(base, warped) > euclidean_similarity(base, warped)

    def test_registered_in_measures(self):
        assert "dtw" in SIMILARITY_MEASURES

    def test_width_mismatch(self):
        with pytest.raises(RecognitionError):
            dtw_similarity(np.zeros((10, 3)), np.zeros((10, 4)))
