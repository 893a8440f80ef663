"""E7 — §2.1: "we successfully (with 86% accuracy) distinguished
hyperactive kids from normal ones by using a Support Vector Machine (SVM)
on the motion speed of different trackers."

Workload: a simulated 30 + 30 Virtual Classroom cohort (60-second AX-task
sessions), tracker motion-speed features, 5-fold cross-validated linear
SVM.  The reproduced number should land in the mid-80s; the bench also
reports the behavioural statistics (reaction times, misses) whose group
differences drive the separability.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.features import cohort_features
from repro.analysis.stats import SummaryStats, welch_t_test
from repro.analysis.svm import SVM
from repro.analysis.validation import cross_validate
from repro.sensors.classroom import generate_cohort

from _util import format_table

N_PER_GROUP = 30
DURATION = 60.0


def run_study():
    rng = np.random.default_rng(86)
    cohort = generate_cohort(
        N_PER_GROUP, rng, duration=DURATION, separation=1.0
    )
    x, y = cohort_features(cohort)
    cv = cross_validate(lambda: SVM(c=1.0), x, y, k=5, seed=0)

    rows = [["5-fold CV accuracy", f"{cv['mean_accuracy']:.1%}",
             f"+/- {cv['std_accuracy']:.1%}"]]
    for group in ("normal", "adhd"):
        sessions = [s for s in cohort if s.profile.group == group]
        rts = [s.mean_reaction_time() for s in sessions]
        rows.append(
            [f"{group} mean reaction", f"{np.nanmean(rts):.3f} s",
             f"misses {np.mean([s.misses() for s in sessions]):.2f}"]
        )
    rt_samples = {
        group: np.array([
            e.reaction_time
            for s in cohort if s.profile.group == group
            for e in s.stimuli
            if e.is_target and e.responded and e.reaction_time
        ])
        for group in ("normal", "adhd")
    }
    t, p = welch_t_test(
        SummaryStats.from_samples(rt_samples["adhd"]),
        SummaryStats.from_samples(rt_samples["normal"]),
    )
    rows.append(["reaction-time Welch t", f"{t:.2f}", f"p = {p:.2g}"])
    return cv, rows


def test_e7_adhd_svm_accuracy(emit, benchmark):
    cv, rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    emit(
        "E7_adhd_svm",
        format_table(["metric", "value", "detail"], rows)
        + "\n[paper: ~86% SVM accuracy on tracker motion speed]",
    )
    # The paper's operating point: mid-80s, clearly above chance and
    # clearly below ceiling.
    assert 0.70 <= cv["mean_accuracy"] <= 0.98, (
        f"accuracy {cv['mean_accuracy']:.1%} outside the plausible band"
    )
    assert cv["mean_accuracy"] >= 0.75
